// Sim-time profiler: folds a trace stream into per-request critical-path
// attribution, per-resource utilization, and sampled occupancy statistics.
//
// The simulator is deterministic and its clock is integral, so unlike a
// sampling profiler every number here is exact: the phases of a request
// slice tile its end-to-end window with no rounding, and BuildProfile
// checks that invariant (sum(phase_ns) == span_ns) per slice. Profiles of
// the same binary + workload are byte-identical, which lets CI diff a
// committed baseline instead of applying statistical tolerances.
//
// Layering: depends only on src/trace (and transitively src/common,
// src/sim); every trace producer (ndp, core, serve, bench) can be profiled
// without this library knowing about them.
#ifndef SRC_PROF_PROFILE_H_
#define SRC_PROF_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/trace/recorder.h"
#include "src/trace/trace_event.h"

namespace nearpm {

// Critical-path phases of one device request, in timeline order. Together
// they partition [command post, unit completion]:
//
//   cmd_post | fifo_backpressure | dev_pipeline | sync_wait |
//   conflict_stall | unit_wait | unit_exec
//
// The boundaries come from the trace events of the request (kCmdPost,
// kDevPipeline, kConflictStall, kUnitExec share one seq and are recorded
// contiguously) plus the split points the device publishes in arg1: the
// nominal MMIO release on kCmdPost and the ordered start lower bound on
// kDevPipeline.
enum class AttrPhase : int {
  kCmdPost = 0,       // nominal MMIO post on the control path
  kFifoBackpressure,  // CPU stalled on a full Request FIFO
  kDevPipeline,       // decode + translate in the dispatcher
  kSyncWait,          // held for cross-device synchronization ordering
  kConflictStall,     // buffered behind a conflicting in-flight request
  kUnitWait,          // every NearPM unit busy
  kUnitExec,          // metadata generation + load/store + media write
  kNumPhases,
};

inline constexpr int kNumAttrPhases = static_cast<int>(AttrPhase::kNumPhases);

const char* AttrPhaseName(AttrPhase phase);

// One NearPM command on one device, with its span decomposed into phases.
// A multi-device operation produces one slice per mirrored device (same
// seq, different device_pid).
struct RequestSlice {
  std::uint64_t seq = 0;
  std::uint64_t trace = 0;  // originating request trace id (0 = untraced)
  std::uint32_t epoch = 0;
  std::uint32_t device_pid = 0;  // TraceDevicePid(device)
  std::uint32_t unit_tid = 0;    // kTraceUnitTidBase + unit index
  std::uint64_t op = 0;          // NearPmOp, from the kCmdPost arg0
  SimTime post_ts = 0;           // CPU started the MMIO post
  SimTime completion = 0;        // unit finished executing
  SimTime phase_ns[kNumAttrPhases] = {};

  SimTime span_ns() const { return completion - post_ts; }
  SimTime PhaseSum() const;
};

// Busy/idle duty cycle of one simulated resource, i.e. one (pid, tid)
// trace track: a NearPM unit, the dispatcher, the PCIe link, a host
// thread, a serve worker. `window_ns` is the sum of per-epoch makespans
// (each epoch restarts the virtual clocks at zero), so duty cycles stay
// comparable across resources within one profile.
struct ResourceUsage {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;         // "NearPM device 0 / unit 1"
  std::uint64_t spans = 0;  // busy intervals recorded on the track
  SimTime busy_ns = 0;      // sum of span durations
  SimTime window_ns = 0;    // observation window (sum of epoch makespans)

  double duty() const {
    return window_ns == 0 ? 0.0
                          : static_cast<double>(busy_ns) /
                                static_cast<double>(window_ns);
  }
};

// Statistics over one sampled occupancy series (a counter phase on one
// track): Request-FIFO depth, In-flight Access Table population, or a
// serve-shard queue backlog.
struct OccupancySeries {
  TracePhase phase = TracePhase::kFifoDepth;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;  // "NearPM device 0 / dispatcher"
  std::uint64_t samples = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
};

// Aggregate over all span events sharing a phase name (the CPU-visible /
// serve-side half of the timeline that is not request attribution).
struct SpanTotal {
  std::uint64_t count = 0;
  SimTime total_ns = 0;
};

// How many of the slowest slices Profile::slowest keeps.
inline constexpr std::size_t kProfileSlowestSlices = 5;

struct Profile {
  std::uint64_t events = 0;  // trace events consumed
  std::uint32_t epochs = 0;  // distinct virtual-clock epochs seen

  // Per-request attribution. `slices` is in trace record order.
  std::vector<RequestSlice> slices;
  std::uint64_t incomplete_slices = 0;  // partial lifecycles (ring drops)
  // Slices whose recorded windows failed to tile the span exactly, in
  // record order, with their identity (seq, trace, device, unit, post and
  // completion times) but no trustworthy phases. Always empty on a healthy
  // build; an entry means the device instrumentation and the profiler
  // disagree about the timeline.
  std::vector<RequestSlice> attribution_violations;
  SimTime total_span_ns = 0;                     // sum of slice spans
  SimTime phase_total_ns[kNumAttrPhases] = {};   // per-phase sums
  std::vector<std::size_t> slowest;              // indices, span descending

  // Non-request span aggregation, keyed by phase name (cpu_persist,
  // serve_batch, deferred_exec, ...).
  std::map<std::string, SpanTotal> span_totals;

  // Per-resource duty cycles, sorted by (pid, tid).
  std::vector<ResourceUsage> resources;

  // Sampled occupancy series, sorted by (phase, pid, tid).
  std::vector<OccupancySeries> occupancy;
};

// Folds a trace into a profile. `events` may be in any order; they are
// processed in record (`order`) order. Events must come from a single
// recorder stream (one `order` sequence); to profile several recorders,
// build one profile each.
Profile BuildProfile(const std::vector<TraceEvent>& events);
Profile BuildProfile(const TraceRecorder& recorder);

// Publishes the profile's resource statistics into a metrics registry as
// gauges, using Prometheus-style label suffixes on the metric names:
//   <prefix>duty{resource="NearPM device 1 / unit 0"}
//   <prefix>occupancy_mean{series="fifo_depth",...} / _max / _samples
// `extra_labels` is spliced in front of the resource label and must be
// empty or end with a comma (e.g. "shard=\"0\","); the serving layer uses
// it to export per-shard per-unit duty cycles.
void ExportResourceMetrics(const Profile& profile, MetricsRegistry* registry,
                           const std::string& prefix,
                           const std::string& extra_labels = "");

}  // namespace nearpm

#endif  // SRC_PROF_PROFILE_H_
