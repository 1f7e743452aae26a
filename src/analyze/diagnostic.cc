#include "src/analyze/diagnostic.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/common/json.h"

namespace nearpm {
namespace analyze {
namespace {

// Folded findings are capped so a pathological run cannot grow the sink
// without bound; occurrence counters keep counting past the cap.
constexpr std::size_t kMaxFoldedDiagnostics = 4096;

}  // namespace

std::string_view TrimSourcePath(std::string_view path) {
  // Keep the path from the last occurrence of a top-level repo directory.
  static constexpr std::string_view kRoots[] = {"src/", "tools/", "tests/",
                                                "bench/", "examples/"};
  std::size_t best = std::string_view::npos;
  for (std::string_view root : kRoots) {
    for (std::size_t pos = path.find(root); pos != std::string_view::npos;
         pos = path.find(root, pos + 1)) {
      const bool at_boundary = pos == 0 || path[pos - 1] == '/';
      if (at_boundary && (best == std::string_view::npos || pos < best)) {
        best = pos;
      }
    }
  }
  return best == std::string_view::npos ? path : path.substr(best);
}

bool DiagnosticSink::Suppress(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  const std::string_view id =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);
  RuleId rule;
  if (!RuleFromString(id, &rule)) return false;
  Suppression s{rule, {}};
  if (colon != std::string_view::npos) {
    s.file_substr = std::string(spec.substr(colon + 1));
  }
  suppressions_.push_back(std::move(s));
  return true;
}

bool DiagnosticSink::IsSuppressed(RuleId rule, const SourceLoc& loc) const {
  const std::string_view file = TrimSourcePath(loc.file);
  return std::any_of(suppressions_.begin(), suppressions_.end(),
                     [&](const Suppression& s) {
                       if (s.rule != rule) return false;
                       return s.file_substr.empty() ||
                              file.find(s.file_substr) !=
                                  std::string_view::npos;
                     });
}

bool DiagnosticSink::Report(RuleId rule, const SourceLoc& loc, ThreadId tid,
                            SimTime when, AddrRange range,
                            std::string message) {
  const bool suppressed = IsSuppressed(rule, loc);
  auto& counter = suppressed ? suppressed_counts_ : counts_;
  ++counter[static_cast<std::size_t>(rule)];

  std::string key = RuleIdString(rule);
  key += '|';
  key += TrimSourcePath(loc.file);
  key += '|';
  key += std::to_string(loc.line);
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++diags_[it->second].count;
  } else if (diags_.size() < kMaxFoldedDiagnostics) {
    index_.emplace(std::move(key), diags_.size());
    diags_.push_back(Diagnostic{rule, std::move(message), loc, tid, when,
                                range, 1, suppressed});
  }
  return !suppressed;
}

std::uint64_t DiagnosticSink::count(RuleId rule) const {
  return counts_[static_cast<std::size_t>(rule)];
}

std::uint64_t DiagnosticSink::suppressed_count(RuleId rule) const {
  return suppressed_counts_[static_cast<std::size_t>(rule)];
}

std::uint64_t DiagnosticSink::total_unsuppressed() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts_) total += c;
  return total;
}

std::uint64_t DiagnosticSink::total_suppressed() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : suppressed_counts_) total += c;
  return total;
}

std::string DiagnosticSink::RenderText() const {
  std::ostringstream out;
  for (const Diagnostic& d : diags_) {
    const RuleInfo& info = RuleOf(d.rule);
    out << TrimSourcePath(d.loc.file) << ':' << d.loc.line << ": "
        << info.level << ": [" << info.id << "] " << d.message;
    if (d.count > 1) out << " (x" << d.count << ")";
    if (d.suppressed) out << " [suppressed]";
    out << '\n';
  }
  out << "pm-sanitizer: " << total_unsuppressed() << " finding(s), "
      << total_suppressed() << " suppressed\n";
  return out.str();
}

std::string DiagnosticSink::RenderJson() const {
  std::string out = "{\n  \"schema\": \"nearpm-analyze-v1\",\n"
                    "  \"diagnostics\": [\n";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    out += "    {\"rule\": ";
    out += JsonQuote(RuleIdString(d.rule));
    out += ", \"file\": ";
    out += JsonQuote(TrimSourcePath(d.loc.file));
    out += ", \"line\": " + std::to_string(d.loc.line);
    out += ", \"function\": ";
    out += JsonQuote(d.loc.function);
    out += ", \"tid\": " + std::to_string(d.tid);
    out += ", \"when_ns\": " + std::to_string(d.when);
    out += ", \"range\": [" + std::to_string(d.range.begin) + ", " +
           std::to_string(d.range.end) + "]";
    out += ", \"count\": " + std::to_string(d.count);
    out += std::string(", \"suppressed\": ") +
           (d.suppressed ? "true" : "false");
    out += ", \"message\": ";
    out += JsonQuote(d.message);
    out += i + 1 < diags_.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"counts\": {";
  for (int i = 0; i < kNumRules; ++i) {
    const auto rule = static_cast<RuleId>(i);
    if (i > 0) out += ", ";
    out += JsonQuote(RuleIdString(rule));
    out += ": " + std::to_string(count(rule));
  }
  out += "},\n  \"suppressed_counts\": {";
  for (int i = 0; i < kNumRules; ++i) {
    const auto rule = static_cast<RuleId>(i);
    if (i > 0) out += ", ";
    out += JsonQuote(RuleIdString(rule));
    out += ": " + std::to_string(suppressed_count(rule));
  }
  out += "},\n  \"total_unsuppressed\": " +
         std::to_string(total_unsuppressed());
  out += ",\n  \"total_suppressed\": " + std::to_string(total_suppressed());
  out += "\n}\n";
  return out;
}

std::string DiagnosticSink::RenderSarif() const {
  std::string out =
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"nearpm-analyze\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/nearpm/analyzer\",\n"
      "          \"rules\": [\n";
  for (int i = 0; i < kNumRules; ++i) {
    const RuleInfo& info = RuleOf(static_cast<RuleId>(i));
    out += "            {\"id\": ";
    out += JsonQuote(info.id);
    out += ", \"name\": ";
    out += JsonQuote(info.name);
    out += ", \"shortDescription\": {\"text\": ";
    out += JsonQuote(info.summary);
    out += "}, \"defaultConfiguration\": {\"level\": ";
    out += JsonQuote(info.level);
    out += i + 1 < kNumRules ? "}},\n" : "}}\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    const RuleInfo& info = RuleOf(d.rule);
    out += "        {\"ruleId\": ";
    out += JsonQuote(info.id);
    out += ", \"ruleIndex\": " +
           std::to_string(static_cast<std::size_t>(d.rule));
    out += ", \"level\": ";
    out += JsonQuote(info.level);
    out += ", \"message\": {\"text\": ";
    out += JsonQuote(d.message);
    out += "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": ";
    out += JsonQuote(TrimSourcePath(d.loc.file));
    out += "}, \"region\": {\"startLine\": " +
           std::to_string(d.loc.line == 0 ? 1 : d.loc.line);
    out += "}}}]";
    out += ", \"occurrenceCount\": " + std::to_string(d.count);
    if (d.suppressed) {
      out += ", \"suppressions\": [{\"kind\": \"inSource\"}]";
    }
    out += i + 1 < diags_.size() ? "},\n" : "}\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace analyze
}  // namespace nearpm
