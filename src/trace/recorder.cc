#include "src/trace/recorder.h"

#include <algorithm>

namespace nearpm {

const NameTable<TracePhase>& TracePhaseNames() {
  static const NameTable<TracePhase> table{
      {TracePhase::kCpuRead, "cpu_read"},
      {TracePhase::kCpuWrite, "cpu_write"},
      {TracePhase::kCpuPersist, "cpu_persist"},
      {TracePhase::kCpuFence, "cpu_fence"},
      {TracePhase::kCpuStall, "cpu_stall"},
      {TracePhase::kCpuDrain, "cpu_drain"},
      {TracePhase::kCmdPost, "cmd_post"},
      {TracePhase::kFifoEnqueue, "fifo_enqueue"},
      {TracePhase::kDevPipeline, "dev_pipeline"},
      {TracePhase::kConflictStall, "conflict_stall"},
      {TracePhase::kUnitExec, "unit_exec"},
      {TracePhase::kDeferredExec, "deferred_exec"},
      {TracePhase::kRetire, "retire"},
      {TracePhase::kWritebackAccepted, "writeback_accepted"},
      {TracePhase::kSyncMarker, "sync_marker"},
      {TracePhase::kSyncComplete, "sync_complete"},
      {TracePhase::kSwSyncPoll, "swsync_poll"},
      {TracePhase::kCrash, "crash"},
      {TracePhase::kCrashOutcome, "crash_outcome"},
      {TracePhase::kRecoveryReplay, "recovery_replay"},
      {TracePhase::kOpBegin, "op_begin"},
      {TracePhase::kOpCommit, "op_commit"},
      {TracePhase::kMechRecover, "mech_recover"},
      {TracePhase::kServeEnqueue, "serve_enqueue"},
      {TracePhase::kServeReject, "serve_reject"},
      {TracePhase::kServeBatch, "serve_batch"},
      {TracePhase::kServeRequest, "serve_request"},
      {TracePhase::kServeTxn, "serve_txn"},
      {TracePhase::kFifoDepth, "fifo_depth"},
      {TracePhase::kInflightDepth, "inflight_depth"},
      {TracePhase::kServeQueueDepth, "serve_queue_depth"},
      {TracePhase::kCoherenceWb, "coherence_wb"},
      {TracePhase::kNetXfer, "net_xfer"},
      {TracePhase::kNetDeliver, "net_deliver"},
      {TracePhase::kReplDoorbell, "repl_doorbell"},
      {TracePhase::kPipeStage, "pipe_stage"},
      {TracePhase::kLsqDepth, "lsq_depth"},
      {TracePhase::kSloAlert, "slo_alert"},
  };
  return table;
}

const char* TracePhaseName(TracePhase phase) {
  return TracePhaseNames().Name(phase);
}

const char* PipeStageName(PipeStage stage) {
  switch (stage) {
    case PipeStage::kDispatch:
      return "dispatch";
    case PipeStage::kExecute:
      return "execute";
    case PipeStage::kWriteback:
      return "writeback";
  }
  return "?";
}

bool TracePhaseIsCounter(TracePhase phase) {
  return phase == TracePhase::kFifoDepth ||
         phase == TracePhase::kInflightDepth ||
         phase == TracePhase::kServeQueueDepth ||
         phase == TracePhase::kLsqDepth;
}

TraceRecorder::TraceRecorder(const TraceRecorderOptions& options)
    : options_(options) {
  if (options_.ring_capacity == 0) {
    options_.ring_capacity = 1;
  }
}

void TraceRecorder::Record(TraceEvent event) {
  event.epoch = epoch_;
  event.order = ++order_;
  if (event.trace == 0) {
    event.trace = active_trace_;
  }
  ++recorded_;
  const std::uint64_t key = TrackKey(event.pid, event.tid);
  if (key != cached_track_key_) {
    cached_track_ = &tracks_[key];
    cached_track_key_ = key;
  }
  Ring& ring = *cached_track_;
  if (ring.events.size() < options_.ring_capacity) {
    ring.events.push_back(event);
  } else {
    ring.events[ring.next] = event;
    ring.next = (ring.next + 1) % options_.ring_capacity;
    ++ring.dropped;
    ++dropped_;
  }
  if (sink_ != nullptr) {
    sink_->Consume(event);
  }
  if (options_.feed_metrics) {
    // O(1) array bumps; the string-keyed registry is only touched when
    // metrics() folds these in at scrape time.
    const auto phase = static_cast<std::size_t>(event.phase);
    if (TracePhaseIsCounter(event.phase)) {
      // Counter samples track a level, not an occurrence: keep the last
      // sampled value (exported as a gauge).
      phase_gauge_[phase] = static_cast<double>(event.arg0);
      phase_gauge_set_[phase] = true;
    } else {
      ++phase_counts_[phase];
      if (event.is_span()) {
        phase_latency_[phase].Add(event.dur);
      }
    }
  }
}

void TraceRecorder::SyncPhaseMetrics() const {
  // Fold the per-phase accumulators into the registry, storing (not adding)
  // so repeated scrapes are idempotent. Entries are only created for phases
  // that actually occurred, preserving empty() for untouched recorders.
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<TracePhase>(i);
    if (phase_counts_[i] > 0) {
      metrics_.Counter(TracePhaseName(phase)).store(phase_counts_[i]);
    }
    if (phase_latency_[i].count() > 0) {
      metrics_.Latency(TracePhaseName(phase)) = phase_latency_[i];
    }
    if (phase_gauge_set_[i]) {
      metrics_.SetGauge(TracePhaseName(phase), phase_gauge_[i]);
    }
  }
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  // Tracks wrap independently, so the merged rings are not automatically a
  // suffix of the global record stream: the busiest track may have
  // overwritten events that calmer tracks' retained entries depend on
  // (a dropped kRetire whose kUnitExec span survives reads as a PPO
  // violation). Cut everything before the *latest* "oldest retained"
  // position among wrapped tracks -- past that order, every track is
  // complete, so the suffix replays exactly like the live stream did.
  std::uint64_t cutoff = 0;
  for (const auto& [key, ring] : tracks_) {
    (void)key;
    if (ring.dropped > 0) {
      cutoff = std::max(cutoff, ring.events[ring.next].order);
    }
  }
  std::vector<TraceEvent> out;
  out.reserve(recorded_ > dropped_ ? recorded_ - dropped_ : 0);
  for (const auto& [key, ring] : tracks_) {
    (void)key;
    for (const TraceEvent& event : ring.events) {
      if (event.order >= cutoff) {
        out.push_back(event);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.order < b.order;  // order is globally monotonic
            });
  return out;
}

void TraceRecorder::Clear() {
  tracks_.clear();
  cached_track_key_ = ~0ull;
  cached_track_ = nullptr;
  recorded_ = 0;
  dropped_ = 0;
  order_ = 0;
  epoch_ = 0;
  phase_counts_.fill(0);
  for (Histogram& histogram : phase_latency_) {
    histogram = Histogram();
  }
  phase_gauge_.fill(0.0);
  phase_gauge_set_.fill(false);
  metrics_.Reset();
}

}  // namespace nearpm
