// Live SLO watchdog: evaluates a declarative SloSpec against the merged
// sliding-window view at batch boundaries, and turns a breach into three
// artifacts at the moment it happens:
//
//   1. a structured alert (rule, observed vs bound, window aggregates, the
//      k slowest in-window request trace ids) -- kept in memory, rendered
//      as one JSON object, and recorded as a kSloAlert instant on the
//      caller's trace;
//   2. a flight-record dump: the schema-versioned JSONL black box
//      (header line with the alert context, then each source's newest
//      events), written to the configured path so "open the dump" replaces
//      "rerun and bisect"; a dump that cannot be written is counted
//      (dump_failures), never silent;
//   3. a cooldown: further checks stay quiet for one window, so an ongoing
//      overload produces one dump per window, not one per batch.
//
// MaybeCheck is designed for the hot path's batch boundary: until the
// check interval elapses it is one relaxed load + compare; the full
// evaluation (window merge, rule checks) runs under an internal mutex, so
// concurrent workers of a threaded service never double-fire one breach.
#ifndef SRC_OBS_WATCHDOG_H_
#define SRC_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/slo.h"
#include "src/obs/window.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace obs {

enum class SloRule : std::uint8_t {
  kP99Latency = 0,
  kErrorRate,
  kStallFraction,
};

const char* SloRuleName(SloRule rule);

struct SloAlert {
  std::uint64_t id = 0;       // 1-based alert sequence
  SimTime sim_now = 0;        // evaluation point, sim ns
  SloRule rule = SloRule::kP99Latency;
  double observed = 0.0;
  double bound = 0.0;
  // Window aggregates at breach time (includes the slowest request ids).
  WindowStats window;
  // Stall-fraction inputs: deltas since the previous evaluation.
  std::uint64_t stalled = 0;
  std::uint64_t attempted = 0;
};

// One-line JSON rendering of an alert (embedded in the dump header).
std::string SloAlertJson(const SloAlert& alert);

// Writes the schema-versioned flight dump: a header object carrying the
// schema tag, the per-source budget, the events accepted, the source labels
// and (when non-null) the alert, followed by one record line per event.
// ReadFlightDump (flight_recorder.h) reads it back.
void WriteFlightDump(std::ostream& os, const FlightRecorder& flight,
                     const SloAlert* alert);

struct WatchdogOptions {
  SloSpec spec;
  // Flight recorder to dump on breach (not owned; may be null).
  const FlightRecorder* flight = nullptr;
  // Breach dump target. Empty = keep the alert in memory only. The file is
  // (re)written on each alert, so a clean run never creates it.
  std::string dump_path;
  // Minimum sim time between evaluations. 0 = spec.window_ns / 8.
  SimTime check_interval_ns = 0;
};

class SloWatchdog {
 public:
  explicit SloWatchdog(const WatchdogOptions& options);

  const SloSpec& spec() const { return options_.spec; }

  // Cheap-until-due breach check. `windows` is the per-worker window set to
  // merge; `stalled`/`attempted` are cumulative admission counters (the
  // watchdog differences them between evaluations). When `recorder` is
  // non-null and a breach fires, a kSloAlert instant is recorded on it (the
  // caller must hold whatever lock that recorder needs). Returns true when
  // an alert fired.
  bool MaybeCheck(SimTime now,
                  const std::vector<const SlidingWindow*>& windows,
                  std::uint64_t stalled, std::uint64_t attempted,
                  TraceRecorder* recorder = nullptr);

  // MaybeCheck without the interval/cooldown gates (tests, end-of-run
  // sweeps).
  bool ForceCheck(SimTime now,
                  const std::vector<const SlidingWindow*>& windows,
                  std::uint64_t stalled, std::uint64_t attempted,
                  TraceRecorder* recorder = nullptr);

  std::uint64_t checks() const {
    return checks_.load(std::memory_order_relaxed);
  }
  // Alerts fired so far. Quiesce writers before iterating.
  std::vector<SloAlert> alerts() const;
  std::uint64_t alert_count() const {
    return alert_count_.load(std::memory_order_relaxed);
  }
  // Breach dumps that could not be opened or written.
  std::uint64_t dump_failures() const {
    return dump_failures_.load(std::memory_order_relaxed);
  }

 private:
  bool Evaluate(SimTime now, const std::vector<const SlidingWindow*>& windows,
                std::uint64_t stalled, std::uint64_t attempted,
                TraceRecorder* recorder);
  void EmitAlert(const SloAlert& alert, TraceRecorder* recorder);

  WatchdogOptions options_;
  SimTime interval_ns_;
  std::atomic<std::uint64_t> next_check_ns_{0};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> alert_count_{0};
  std::atomic<std::uint64_t> dump_failures_{0};
  mutable std::mutex mu_;
  SimTime cooldown_until_ns_ = 0;
  std::uint64_t prev_stalled_ = 0;
  std::uint64_t prev_attempted_ = 0;
  std::vector<SloAlert> alerts_;
};

}  // namespace obs
}  // namespace nearpm

#endif  // SRC_OBS_WATCHDOG_H_
