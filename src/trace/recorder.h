// Low-overhead event recorder: one bounded ring holding the newest events in
// record order.
//
// Recording is a single branch + a stamped copy into a preallocated ring;
// when the ring fills, the oldest event is overwritten (recorded() and
// dropped() say how much history is gone). Because every event, whatever
// track it belongs to, goes through the one ring, what the ring holds is
// always a suffix of the record stream: a snapshot replays exactly like the
// live stream did from its first retained event. Instrumentation sites go
// through the NEARPM_TRACE_* macros below, which compile to a null-check
// when no recorder is attached -- the disabled cost is one predictable
// branch, so performance runs are unaffected (checked by the Figure 16/17
// benchmarks).
//
// Per-phase metrics are accumulated into plain arrays indexed by
// TracePhase -- no string lookup, no registry lock on the record path --
// and folded into the MetricsRegistry lazily when metrics() is accessed.
// Callers already read metrics() only once writers have quiesced (the
// registry's own contract), so the deferred sync is invisible to them.
//
// Concurrency: one writer at a time (the simulator is single-OS-threaded
// per recorder; the serving layer records under the node's lock, the
// fabric under its own), any number of concurrent readers of the ring.
// Each slot is published seqlock-style under its event's `order`: the
// writer clears the slot's order word, release-stores the other words,
// then release-stores the order, and recorded() publishes the newest
// order. Newest() copies a slot only while its order word reads the
// order it expects before and after the copy, so a reader running next to
// the writer -- the SLO watchdog dumping mid-overload -- sees only whole
// events and needs no lock. Everything else (epoch, active trace, metrics)
// is the writer's alone.
#ifndef SRC_TRACE_RECORDER_H_
#define SRC_TRACE_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/pages.h"
#include "src/trace/metrics.h"
#include "src/trace/trace_event.h"

namespace nearpm {

struct TraceRecorderOptions {
  // Events retained, across every track, before the ring wraps. The ring
  // is allocated once at this size, and its pages are touched only as
  // events are written, so an idle or short-lived recorder stays small.
  std::size_t ring_capacity = 1 << 18;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceRecorderOptions& options = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Records one event (fills epoch and order, and stamps the active trace
  // id on events that don't carry one). Call through the macros so argument
  // evaluation is skipped when tracing is off.
  void Record(TraceEvent event);

  // Request-scoped tracing: while a trace id is active, every event recorded
  // with trace == 0 inherits it. Serve workers set the scope around each
  // request's execution (always under the shard lock in threaded mode, so a
  // plain member is race-free); cross-node propagation stamps the id
  // explicitly on fabric events instead.
  void set_active_trace(std::uint64_t id) { active_trace_ = id; }
  std::uint64_t active_trace() const { return active_trace_; }

  // Starts a new epoch: virtual clocks restarted (a crash, or a fresh
  // Runtime attached to a shared recorder). Returns the new epoch id.
  std::uint32_t NextEpoch() { return ++epoch_; }
  std::uint32_t epoch() const { return epoch_; }

  // The newest min(n, ring_capacity) events in record order, each one
  // whole: a suffix of the record stream. Safe from any thread while the
  // writer records; when the writer overwrites a slot mid-copy, the result
  // keeps only the events after it.
  std::vector<TraceEvent> Newest(std::size_t n) const;
  // Everything the ring retains.
  std::vector<TraceEvent> Snapshot() const { return Newest(capacity_); }

  // Events recorded so far (the newest event's order) and how many of
  // them the ring has overwritten. Safe from any thread.
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  // Phase metrics accumulated so far, folded into the registry on access
  // (store, not add -- syncing twice never double-counts). Like every other
  // registry read, call once writers have quiesced.
  MetricsRegistry& metrics() {
    SyncPhaseMetrics();
    return metrics_;
  }
  const MetricsRegistry& metrics() const {
    SyncPhaseMetrics();
    return metrics_;
  }

 private:
  static constexpr std::size_t kPhaseCount =
      static_cast<std::size_t>(TracePhase::kCount);

  // The kSlotWords words that hold the event of `order`.
  std::uint64_t* Slot(std::uint64_t order) const {
    return slots_.get() + (order % capacity_) * kSlotWords;
  }
  // Copies the event of `order` out of its slot; false when the slot no
  // longer (or not yet wholly) holds it.
  bool LoadSlot(std::uint64_t order, TraceEvent* event) const;
  void SyncPhaseMetrics() const;

  // A slot holds an event's fields packed into whole words (recorder.cc),
  // then its order, which stamps the slot.
  static constexpr std::size_t kSlotWords = 13;

  std::size_t capacity_;
  // Allocated once and never grown, copied or cleared; lazily backed, so
  // a page of the ring becomes resident when the first event lands in it.
  ZeroedPages<std::uint64_t> slots_;
  std::atomic<std::uint64_t> recorded_{0};
  bool enabled_ = true;
  std::uint32_t epoch_ = 0;
  std::uint64_t active_trace_ = 0;
  // Hot-path phase accumulators: plain loads and stores, since only the
  // writer touches them. Span latencies are counted in Histogram's buckets
  // and become one when metrics() syncs: Histogram::Add is three locked
  // read-modify-writes even uncontended, a measurable share of recording.
  std::array<std::uint64_t, kPhaseCount> phase_counts_{};
  std::array<std::array<std::uint64_t, Histogram::kBuckets>, kPhaseCount>
      phase_latency_buckets_{};
  std::array<std::uint64_t, kPhaseCount> phase_latency_sum_{};
  std::array<double, kPhaseCount> phase_gauge_{};
  std::array<bool, kPhaseCount> phase_gauge_set_{};
  mutable MetricsRegistry metrics_;
};

// One labeled event stream -- a recorder's snapshot ("shard0", "fabric",
// "node2", ...), a raw-trace file or one source of a flight dump. Events
// within a source share an `order` sequence; across sources only simulated
// time is comparable.
struct TimelineSource {
  std::string label;
  std::vector<TraceEvent> events;
};

// Instrumentation entry points. `rec` is a TraceRecorder* (may be null);
// the variadic part is designated initializers of TraceEvent, e.g.
//   NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCpuFence,
//                      .tid = t, .ts = now);
// Both macros expand to nothing costlier than a pointer test when tracing
// is detached; NEARPM_TRACE_SPAN is the same operation, named so call sites
// read as "this is an interval, not an instant".
#define NEARPM_TRACE_EVENT(rec, ...)                              \
  do {                                                            \
    ::nearpm::TraceRecorder* nearpm_trace_rec_ = (rec);           \
    if (nearpm_trace_rec_ != nullptr && nearpm_trace_rec_->enabled()) { \
      nearpm_trace_rec_->Record(::nearpm::TraceEvent{__VA_ARGS__}); \
    }                                                             \
  } while (0)

#define NEARPM_TRACE_SPAN(rec, ...) NEARPM_TRACE_EVENT(rec, __VA_ARGS__)

// True when events would actually be recorded (for guarding pre-computation
// that only feeds tracing).
#define NEARPM_TRACE_ENABLED(rec) ((rec) != nullptr && (rec)->enabled())

// RAII trace-id scope: events recorded while the scope is live inherit the
// request's trace id. Nestable (restores the previous id), null-tolerant.
class TraceIdScope {
 public:
  TraceIdScope(TraceRecorder* recorder, std::uint64_t id)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      previous_ = recorder_->active_trace();
      recorder_->set_active_trace(id);
    }
  }
  ~TraceIdScope() {
    if (recorder_ != nullptr) {
      recorder_->set_active_trace(previous_);
    }
  }
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  TraceRecorder* recorder_;
  std::uint64_t previous_ = 0;
};

}  // namespace nearpm

#endif  // SRC_TRACE_RECORDER_H_
