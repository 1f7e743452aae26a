#include "src/trace/recorder.h"

#include <algorithm>
#include <array>

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

namespace {

using Word = std::atomic_ref<std::uint64_t>;

// An event's fields as whole words, so every slot store and load is one
// atomic word and no padding byte is copied. A slot's last word holds the
// event's order.
using Fields = std::array<std::uint64_t, 12>;

Fields Pack(const TraceEvent& e) {
  Fields w{};
  w[0] = (std::uint64_t{e.pid} << 32) | e.tid;
  w[1] = (std::uint64_t{e.epoch} << 8) | static_cast<std::uint8_t>(e.phase);
  w[2] = e.ts;
  w[3] = e.dur;
  w[4] = e.seq;
  w[5] = e.range.begin;
  w[6] = e.range.end;
  w[7] = e.range2.begin;
  w[8] = e.range2.end;
  w[9] = e.arg0;
  w[10] = e.arg1;
  w[11] = e.trace;
  return w;
}

TraceEvent Unpack(const Fields& w, std::uint64_t order) {
  TraceEvent e;
  e.pid = static_cast<std::uint32_t>(w[0] >> 32);
  e.tid = static_cast<std::uint32_t>(w[0]);
  e.epoch = static_cast<std::uint32_t>(w[1] >> 8);
  e.phase = static_cast<TracePhase>(w[1] & 0xff);
  e.ts = w[2];
  e.dur = w[3];
  e.seq = w[4];
  e.range = {w[5], w[6]};
  e.range2 = {w[7], w[8]};
  e.arg0 = w[9];
  e.arg1 = w[10];
  e.trace = w[11];
  e.order = order;
  return e;
}

}  // namespace

TraceRecorder::TraceRecorder(const TraceRecorderOptions& options)
    : capacity_(options.ring_capacity == 0 ? 1 : options.ring_capacity),
      slots_(MapZeroedArray<std::uint64_t>(capacity_ * kSlotWords)) {
  static_assert(std::tuple_size_v<Fields> + 1 == kSlotWords);
}

void TraceRecorder::Record(TraceEvent event) {
  const std::uint64_t order = recorded_.load(std::memory_order_relaxed) + 1;
  event.epoch = epoch_;
  event.order = order;
  if (event.trace == 0) {
    event.trace = active_trace_;
  }
  // Seqlock publication: the order word reads 0 while the other words are
  // in flux. Every store is a release, so a reader whose acquire load sees
  // any new word also sees the cleared order word and drops the slot.
  std::uint64_t* slot = Slot(order);
  Word stamp(slot[kSlotWords - 1]);
  stamp.store(0, std::memory_order_relaxed);
  const Fields fields = Pack(event);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    Word(slot[i]).store(fields[i], std::memory_order_release);
  }
  stamp.store(order, std::memory_order_release);
  recorded_.store(order, std::memory_order_release);

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

bool TraceRecorder::LoadSlot(std::uint64_t order, TraceEvent* event) const {
  std::uint64_t* slot = Slot(order);
  Word stamp(slot[kSlotWords - 1]);
  if (stamp.load(std::memory_order_acquire) != order) {
    return false;
  }
  Fields fields{};
  for (std::size_t i = 0; i < fields.size(); ++i) {
    fields[i] = Word(slot[i]).load(std::memory_order_acquire);
  }
  if (stamp.load(std::memory_order_relaxed) != order) {
    return false;  // the writer began overwriting it while we copied
  }
  *event = Unpack(fields, order);
  return true;
}

std::vector<TraceEvent> TraceRecorder::Newest(std::size_t n) const {
  const std::uint64_t newest = recorded();
  const std::uint64_t count = std::min<std::uint64_t>({n, capacity_, newest});
  std::vector<TraceEvent> out;
  out.reserve(count);
  for (std::uint64_t order = newest - count + 1; order <= newest; ++order) {
    TraceEvent event;
    if (!LoadSlot(order, &event)) {
      // The writer lapped this slot while we read: what was copied so far
      // is older than the hole, so only what follows it stays a suffix.
      out.clear();
      continue;
    }
    out.push_back(event);
  }
  return out;
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

}  // namespace nearpm
