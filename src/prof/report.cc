#include "src/prof/report.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>

#include "src/common/json.h"
#include "src/trace/trace_event.h"

namespace nearpm {

namespace {

// Fixed six-decimal rendering keeps profile output byte-stable: the inputs
// are integral sim-time ratios, so the same run always prints the same
// digits.
std::string Fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string Percent(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%6.2f%%", v * 100.0);
  return buf;
}

// "device 0" / "unit 1" labels for a slice; slices always come from a
// device pid + unit tid.
std::string SliceDevice(const RequestSlice& s) {
  return std::to_string(s.device_pid >= kTraceDevicePidBase
                            ? s.device_pid - kTraceDevicePidBase
                            : s.device_pid);
}

std::string SliceUnit(const RequestSlice& s) {
  return std::to_string(s.unit_tid >= kTraceUnitTidBase
                            ? s.unit_tid - kTraceUnitTidBase
                            : s.unit_tid);
}

// Request phases already folded into per-request attribution; everything
// else in span_totals is CPU / ordering / serve side.
bool IsRequestSpanPhase(const std::string& name) {
  return name == "cmd_post" || name == "dev_pipeline" ||
         name == "conflict_stall" || name == "unit_exec";
}

void AppendRow(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendRow(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string RenderReport(const Profile& profile) {
  std::string out;
  out += "=== NearPM sim-time profile ===\n";
  AppendRow(out, "events: %" PRIu64 " across %u epoch(s)\n", profile.events,
            profile.epochs);
  AppendRow(out,
            "request slices: %zu (incomplete: %" PRIu64
            ", attribution violations: %zu)\n",
            profile.slices.size(), profile.incomplete_slices,
            profile.attribution_violations.size());

  if (!profile.slices.empty()) {
    out += "\n-- critical-path attribution (phase sum == end-to-end span on "
           "every slice) --\n";
    AppendRow(out, "total request span: %" PRIu64 " ns\n",
              profile.total_span_ns);
    AppendRow(out, "  %-18s %14s %8s\n", "phase", "total_ns", "share");
    for (int i = 0; i < kNumAttrPhases; ++i) {
      const double share =
          profile.total_span_ns == 0
              ? 0.0
              : static_cast<double>(profile.phase_total_ns[i]) /
                    static_cast<double>(profile.total_span_ns);
      AppendRow(out, "  %-18s %14" PRIu64 " %s\n",
                AttrPhaseName(static_cast<AttrPhase>(i)),
                profile.phase_total_ns[i], Percent(share).c_str());
    }

    out += "\n-- slowest requests --\n";
    for (std::size_t index : profile.slowest) {
      const RequestSlice& s = profile.slices[index];
      AppendRow(out,
                "  seq %" PRIu64 " epoch %u device %s unit %s: %" PRIu64
                " ns (",
                s.seq, s.epoch, SliceDevice(s).c_str(), SliceUnit(s).c_str(),
                s.span_ns());
      bool first = true;
      for (int i = 0; i < kNumAttrPhases; ++i) {
        if (s.phase_ns[i] == 0) continue;
        if (!first) out += ", ";
        first = false;
        AppendRow(out, "%s %" PRIu64,
                  AttrPhaseName(static_cast<AttrPhase>(i)), s.phase_ns[i]);
      }
      out += ")\n";
    }
  }

  if (!profile.resources.empty()) {
    out += "\n-- resource duty cycles --\n";
    for (const ResourceUsage& usage : profile.resources) {
      AppendRow(out,
                "  %-34s busy %12" PRIu64 " ns  spans %6" PRIu64
                "  duty %s\n",
                usage.name.c_str(), usage.busy_ns, usage.spans,
                Percent(usage.duty()).c_str());
    }
  }

  if (!profile.occupancy.empty()) {
    out += "\n-- sampled occupancy --\n";
    for (const OccupancySeries& series : profile.occupancy) {
      AppendRow(out,
                "  %-18s @ %-34s samples %6" PRIu64 "  mean %s  max %" PRIu64
                "\n",
                TracePhaseName(series.phase), series.name.c_str(),
                series.samples, Fixed6(series.mean).c_str(), series.max);
    }
  }

  bool has_other = false;
  for (const auto& [name, total] : profile.span_totals) {
    if (!IsRequestSpanPhase(name)) {
      if (!has_other) {
        out += "\n-- other span phases --\n";
        has_other = true;
      }
      AppendRow(out, "  %-18s count %8" PRIu64 "  total %12" PRIu64 " ns\n",
                name.c_str(), total.count, total.total_ns);
    }
  }
  return out;
}

std::string RenderFolded(const Profile& profile) {
  // Aggregate first: folded-stack consumers expect one line per distinct
  // stack. std::map keys keep the output deterministic.
  std::map<std::string, std::uint64_t> stacks;
  for (const RequestSlice& s : profile.slices) {
    for (int i = 0; i < kNumAttrPhases; ++i) {
      if (s.phase_ns[i] == 0) continue;
      stacks["request;device " + SliceDevice(s) + ";" +
             AttrPhaseName(static_cast<AttrPhase>(i))] += s.phase_ns[i];
    }
  }
  for (const auto& [name, total] : profile.span_totals) {
    if (IsRequestSpanPhase(name)) continue;  // already under request;...
    stacks["other;" + name] += total.total_ns;
  }
  std::string out;
  for (const auto& [stack, ns] : stacks) {
    out += stack + " " + std::to_string(ns) + "\n";
  }
  return out;
}

std::string RenderProfileJson(const Profile& profile,
                              const std::string& config_json) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"nearpm-profile-v1\",\n";
  out += "  \"config\": " + config_json + ",\n";
  out += "  \"events\": " + std::to_string(profile.events) + ",\n";
  out += "  \"epochs\": " + std::to_string(profile.epochs) + ",\n";

  out += "  \"requests\": {\n";
  out += "    \"slices\": " + std::to_string(profile.slices.size()) + ",\n";
  out += "    \"incomplete\": " + std::to_string(profile.incomplete_slices) +
         ",\n";
  out += "    \"attribution_violations\": " +
         std::to_string(profile.attribution_violations.size()) + ",\n";
  out += "    \"total_span_ns\": " + std::to_string(profile.total_span_ns) +
         ",\n";
  out += "    \"phases_ns\": {";
  for (int i = 0; i < kNumAttrPhases; ++i) {
    if (i != 0) out += ", ";
    out += "\"" + std::string(AttrPhaseName(static_cast<AttrPhase>(i))) +
           "\": " + std::to_string(profile.phase_total_ns[i]);
  }
  out += "},\n";
  out += "    \"phase_share\": {";
  for (int i = 0; i < kNumAttrPhases; ++i) {
    if (i != 0) out += ", ";
    const double share =
        profile.total_span_ns == 0
            ? 0.0
            : static_cast<double>(profile.phase_total_ns[i]) /
                  static_cast<double>(profile.total_span_ns);
    out += "\"" + std::string(AttrPhaseName(static_cast<AttrPhase>(i))) +
           "\": " + Fixed6(share);
  }
  out += "}\n";
  out += "  },\n";

  out += "  \"slowest\": [";
  bool first = true;
  for (std::size_t index : profile.slowest) {
    const RequestSlice& s = profile.slices[index];
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"seq\": " + std::to_string(s.seq) +
           ", \"epoch\": " + std::to_string(s.epoch) + ", \"device\": " +
           SliceDevice(s) + ", \"unit\": " + SliceUnit(s) +
           ", \"span_ns\": " + std::to_string(s.span_ns()) +
           ", \"phases_ns\": {";
    for (int i = 0; i < kNumAttrPhases; ++i) {
      if (i != 0) out += ", ";
      out += "\"" + std::string(AttrPhaseName(static_cast<AttrPhase>(i))) +
             "\": " + std::to_string(s.phase_ns[i]);
    }
    out += "}}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"resources\": [";
  first = true;
  for (const ResourceUsage& usage : profile.resources) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + JsonQuote(usage.name) +
           ", \"pid\": " + std::to_string(usage.pid) +
           ", \"tid\": " + std::to_string(usage.tid) +
           ", \"spans\": " + std::to_string(usage.spans) +
           ", \"busy_ns\": " + std::to_string(usage.busy_ns) +
           ", \"window_ns\": " + std::to_string(usage.window_ns) +
           ", \"duty\": " + Fixed6(usage.duty()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"occupancy\": [";
  first = true;
  for (const OccupancySeries& series : profile.occupancy) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"series\": \"" + std::string(TracePhaseName(series.phase)) +
           "\", \"name\": " + JsonQuote(series.name) +
           ", \"pid\": " + std::to_string(series.pid) +
           ", \"tid\": " + std::to_string(series.tid) +
           ", \"samples\": " + std::to_string(series.samples) +
           ", \"mean\": " + Fixed6(series.mean) +
           ", \"max\": " + std::to_string(series.max) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"span_totals_ns\": {";
  first = true;
  for (const auto& [name, total] : profile.span_totals) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(name) +
           ": {\"count\": " + std::to_string(total.count) +
           ", \"total_ns\": " + std::to_string(total.total_ns) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace nearpm
