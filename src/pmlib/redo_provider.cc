#include "src/pmlib/redo_provider.h"

#include "src/core/cc_stats.h"

namespace nearpm {

RedoLogProvider::RedoLogProvider(const PmPool* pool)
    : pool_(pool),
      threads_(static_cast<size_t>(pool->layout().threads)) {}

Status RedoLogProvider::BeginOp(ThreadId t) {
  ThreadState& ts = threads_[t];
  if (ts.active) {
    return FailedPrecondition("operation already open on this thread");
  }
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  ts.active = true;
  ts.tx_id = rt.NextTxId();
  ts.redirects.clear();
  NEARPM_TRACE_EVENT(rt.trace(), .phase = TracePhase::kOpBegin, .tid = t,
                     .ts = rt.Now(t), .seq = ts.tx_id);
  pool_->WriteTxRecord(t, TxState::kActive, ts.tx_id);
  return Status::Ok();
}

StatusOr<PmAddr> RedoLogProvider::PrepareStore(ThreadId t, PmAddr addr,
                                               std::uint64_t size) {
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("PrepareStore outside an operation");
  }
  const AddrRange range{addr, addr + size};
  // Same range already redirected: overwrite the slot payload in place.
  for (const Redirect& r : ts.redirects) {
    if (r.target == range) {
      return CcArea::SlotData(r.slot);
    }
  }
  if (ts.redirects.size() >= kLogSlots) {
    return ResourceExhausted("redo log slots exhausted in one operation");
  }
  if (size > kMaxLogData) {
    return InvalidArgument("redo entry larger than a log slot");
  }
  const PmAddr slot = pool_->cc_area(t).RedoSlotAddr(ts.redirects.size());
  ts.redirects.push_back(Redirect{range, slot});
  return CcArea::SlotData(slot);
}

StatusOr<PmAddr> RedoLogProvider::TranslateLoad(ThreadId t, PmAddr addr,
                                                std::uint64_t size) {
  const ThreadState& ts = threads_[t];
  if (!ts.active) {
    return addr;
  }
  const AddrRange range{addr, addr + size};
  // Newest redirect wins (ranges equal-or-disjoint in practice).
  for (auto it = ts.redirects.rbegin(); it != ts.redirects.rend(); ++it) {
    if (it->target.begin <= range.begin && range.end <= it->target.end) {
      return CcArea::SlotData(it->slot) + (range.begin - it->target.begin);
    }
    if (it->target.Overlaps(range)) {
      return FailedPrecondition(
          "load partially overlaps an uncommitted redo entry");
    }
  }
  return addr;
}

StatusOr<bool> RedoLogProvider::CommitOp(ThreadId t,
                                         std::span<const AddrRange> dirty) {
  (void)dirty;  // the slots are persisted below; targets update near memory
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("CommitOp outside an operation");
  }
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);

  // 1. Seal each redo entry: header (target, size, checksum) after payload.
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  std::vector<std::uint8_t> payload;
  for (const Redirect& r : ts.redirects) {
    payload.resize(r.target.size());
    rt.Read(t, CcArea::SlotData(r.slot), payload);
    SlotHeader header;
    header.magic = kRedoMagic;
    header.tag = ts.tx_id;
    header.target = r.target.begin;
    header.size = r.target.size();
    header.checksum = Checksum64(payload);
    rt.Store(t, r.slot, header);
    rt.Persist(t, r.slot, kSlotHeaderSize + header.size);
  }
  // 2. Commit marker.
  pool_->WriteTxRecord(t, TxState::kCommitted, ts.tx_id);
  // 3. Apply the log near memory.
  rt.stats().SetCategory(t, CcCategory::kDataMovement);
  for (const Redirect& r : ts.redirects) {
    NEARPM_RETURN_IF_ERROR(
        rt.ApplyLog(pool_->id(), t, r.slot, r.target.size(), r.target.begin));
  }
  // 4. Confirm the applies before deleting the log: an invalidated slot must
  //    imply an applied target, and apply/delete touch different slot lines,
  //    so ordering cannot come from address conflicts alone.
  rt.stats().SetCategory(t, CcCategory::kOrdering);
  rt.DrainDevices(t);
  // 5. Delete the log and return to IDLE.
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  std::vector<PmAddr> slots;
  slots.reserve(ts.redirects.size());
  for (const Redirect& r : ts.redirects) {
    slots.push_back(r.slot);
  }
  if (!slots.empty()) {
    NEARPM_RETURN_IF_ERROR(rt.CommitLog(pool_->id(), t, slots));
  }
  // COMMITTED persists until the next BeginOp; re-applying a committed log
  // at recovery is idempotent.
  NEARPM_TRACE_EVENT(rt.trace(), .phase = TracePhase::kOpCommit, .tid = t,
                     .ts = rt.Now(t), .seq = ts.tx_id, .arg0 = 1);
  ts.active = false;
  return true;
}

Status RedoLogProvider::RecoverThread(ThreadId t) {
  Runtime& rt = pool_->rt();
  const CcArea area = pool_->cc_area(t);
  const TxRecord rec = rt.Load<TxRecord>(t, area.TxRecordAddr());
  // Reapply a committed transaction's log; skip_recovery_replay: fault
  // injection -- scrub without reapplying.
  const bool reapply =
      rec.state == static_cast<std::uint64_t>(TxState::kCommitted) &&
      !rt.options().skip_recovery_replay;
  reapplied_ += pool_->RecoverSlots(
      t, area.RedoSlotAddr(0), kLogSlots, kRedoMagic,
      reapply ? std::optional(rec.tx_id) : std::nullopt);
  pool_->WriteTxRecord(t, TxState::kIdle, 0);
  return Status::Ok();
}

Status RedoLogProvider::Recover() {
  NEARPM_TRACE_EVENT(pool_->rt().trace(), .phase = TracePhase::kMechRecover,
                     .ts = pool_->rt().Now(0));
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    NEARPM_RETURN_IF_ERROR(RecoverThread(t));
    threads_[t] = ThreadState{};
  }
  return Status::Ok();
}

void RedoLogProvider::DropVolatile() {
  for (ThreadState& ts : threads_) {
    ts = ThreadState{};
  }
}

}  // namespace nearpm
