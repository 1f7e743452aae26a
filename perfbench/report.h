// Shared pieces of the benchmark binary: the metric report it prints, exact
// quantiles over raw samples, and the wall-clock span log of the traced run.
//
// Spans are recorded only by the benchmark, around its own calls into each
// layer's public functions; nothing inside src/ is instrumented. A span's
// self time is its duration minus the time its direct children cover, and
// each layer's self time is the sum over its spans (thread-seconds: client
// threads run concurrently, so the layers can add up to more than the wall
// time of the run).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Nearest-rank q-quantile of raw samples (0 when empty). Takes the samples
// by value: the selection reorders them.
template <typename T>
double Quantile(std::vector<T> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return static_cast<double>(samples[index]);
}

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// What one pass of a workload measured. End-to-end metrics have plain names;
// per-layer metrics are named <layer>.<metric>.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }

  const double* Find(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) {
        return &e.value;
      }
    }
    return nullptr;
  }

  // Counts one checked operation; `ok` false makes it a failure.
  void Check(bool ok) { Count(1, ok ? 0 : 1); }
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // A failed check that is not an operation (e.g. a PPO violation).
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }

  bool correct() const { return correct_ && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  // Takes `other`'s per-layer metrics (names with a '.') and its counts.
  void MergeLayers(const Report& other) {
    for (const Entry& e : other.entries_) {
      if (e.name.find('.') != std::string::npos) {
        Set(e.name, e.value, e.unit.c_str());
      }
    }
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    correct_ = correct_ && other.correct_;
  }

  void PrintHuman(std::FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "  %-40s %16.6g %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

  // One JSON line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson(std::FILE* out) const {
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                 "\"metrics\": {",
                 correct() ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[40];
      if (std::isfinite(e.value)) {
        std::snprintf(value, sizeof(value), "%.17g", e.value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      std::fprintf(out, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   i > 0 ? ", " : "", e.name.c_str(), value, e.unit.c_str());
    }
    std::fprintf(out, "}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---- Spans --------------------------------------------------------------------

// The repository modules a span can be charged to.
enum class Layer : std::uint8_t {
  kBench,  // the benchmark itself (request generation, checks, loops)
  kCore,
  kWorkloads,
  kServe,
  kRepl,
  kNet,
  kTrace,
  kObs,
  kCount,
};

inline const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {"bench", "core",  "workloads",
                                           "serve", "repl",  "net",
                                           "trace", "obs"};
  return kNames[static_cast<int>(layer)];
}

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

// One thread's spans. Not thread-safe: every thread owns its own log.
class SpanLog {
 public:
  // `keep` bounds the spans retained for the output file; self times are
  // accumulated over every span regardless.
  SpanLog(std::uint32_t thread, std::size_t keep)
      : thread_(thread), keep_(keep) {}

  void Open(Layer layer, const char* name, std::uint64_t request) {
    OpenSpan open;
    open.id = (static_cast<std::uint64_t>(thread_) << 40) | ++next_id_;
    open.parent = stack_.empty() ? 0 : stack_.back().id;
    open.request =
        request != 0 || stack_.empty() ? request : stack_.back().request;
    open.layer = layer;
    open.name = name;
    open.start = NowNs();
    stack_.push_back(open);
  }

  void Close() {
    const std::int64_t end = NowNs();
    const OpenSpan open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - open.start;
    self_ns_[static_cast<std::size_t>(open.layer)] +=
        static_cast<double>(dur - open.child_ns);
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    }
    if (spans_.size() < keep_) {
      spans_.push_back({open.id, open.parent, open.request, open.layer,
                        open.name, open.start, end});
    }
  }

  double self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }

  // Tab-separated rows: thread id parent request layer name start_ns end_ns
  // (times relative to `epoch_ns`).
  void Write(std::FILE* out, std::int64_t epoch_ns) const {
    for (const Span& s : spans_) {
      std::fprintf(out, "%u\t%llu\t%llu\t%llu\t%s\t%s\t%lld\t%lld\n", thread_,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   LayerName(s.layer), s.name,
                   static_cast<long long>(s.start - epoch_ns),
                   static_cast<long long>(s.end - epoch_ns));
    }
  }

 private:
  struct OpenSpan {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    Layer layer = Layer::kBench;
    const char* name = "";
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
  };
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    Layer layer;
    const char* name;
    std::int64_t start;
    std::int64_t end;
  };

  std::uint32_t thread_;
  std::size_t keep_;
  std::uint64_t next_id_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<Span> spans_;
  std::array<double, kLayers> self_ns_{};
};

// RAII span; a null log (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, const char* name,
             std::uint64_t request = 0)
      : log_(log) {
    if (log_ != nullptr) {
      log_->Open(layer, name, request);
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// Every thread's log of one traced pass.
class SpanSet {
 public:
  explicit SpanSet(std::size_t keep_per_thread) : keep_(keep_per_thread) {}

  SpanLog* NewLog() {
    logs_.push_back(std::make_unique<SpanLog>(
        static_cast<std::uint32_t>(logs_.size()), keep_));
    return logs_.back().get();
  }

  // self_s.<layer> for every layer, summed over threads.
  void Summarize(Report& report) const {
    for (std::size_t l = 0; l < kLayers; ++l) {
      double ns = 0;
      for (const auto& log : logs_) {
        ns += log->self_ns(static_cast<Layer>(l));
      }
      report.Set(std::string("self_s.") + LayerName(static_cast<Layer>(l)),
                 ns * 1e-9, "s");
    }
  }

  // Writes the retained spans; returns false when the file cannot be made.
  bool WriteFile(const std::string& path, std::int64_t epoch_ns) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "thread\tid\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\n");
    for (const auto& log : logs_) {
      log->Write(out, epoch_ns);
    }
    return std::fclose(out) == 0;
  }

 private:
  std::size_t keep_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// What every workload pass receives.
struct PassArgs {
  std::uint64_t seed = 1;
  int seconds = 10;
  SpanSet* spans = nullptr;  // null: untraced pass
};

Report RunPaperCc(const PassArgs& args);
Report RunKvClosed(const PassArgs& args);
Report RunReplTxn(const PassArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
