#include "src/pmlib/ckpt_provider.h"

#include <algorithm>

#include "src/core/cc_stats.h"

namespace nearpm {

CheckpointProvider::CheckpointProvider(const PmPool* pool, int epoch_ops)
    : pool_(pool),
      epoch_ops_(epoch_ops),
      threads_(static_cast<size_t>(pool->layout().threads)) {}

std::uint64_t CheckpointProvider::PageOf(PmAddr addr) const {
  return (addr - pool_->data_base()) / kPmPageSize;
}

Status CheckpointProvider::BeginOp(ThreadId t) {
  ThreadState& ts = threads_[t];
  if (ts.active) {
    return FailedPrecondition("operation already open on this thread");
  }
  ts.active = true;
  NEARPM_TRACE_EVENT(pool_->rt().trace(), .phase = TracePhase::kOpBegin,
                     .tid = t, .ts = pool_->rt().Now(t), .seq = ts.epoch);
  return Status::Ok();
}

StatusOr<PmAddr> CheckpointProvider::PrepareStore(ThreadId t, PmAddr addr,
                                                  std::uint64_t size) {
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("PrepareStore outside an operation");
  }
  Runtime& rt = pool_->rt();
  const std::uint64_t first = PageOf(addr);
  const std::uint64_t last = PageOf(addr + size - 1);
  for (std::uint64_t page = first; page <= last; ++page) {
    if (ts.pages_this_epoch.contains(page)) {
      continue;
    }
    if (ts.used_slots >= kCkptSlots) {
      // CommitOp closes the epoch before slots can run out; hitting this
      // means a single operation touched more pages than the slot margin.
      return ResourceExhausted("checkpoint slots exhausted within one op");
    }
    Runtime::CcRegion cc(rt, t);
    const PmAddr page_addr = pool_->data_base() + page * kPmPageSize;
    const PmAddr slot = pool_->cc_area(t).CkptSlotAddr(ts.used_slots);
    auto done = rt.CkpointCreate(pool_->id(), t, ts.epoch, page_addr,
                                 kPmPageSize, slot);
    if (!done.ok()) {
      return done.status();
    }
    ts.snapshot_done = std::max(ts.snapshot_done, *done);
    ++ts.used_slots;
    ts.pages_this_epoch.insert(page);
  }
  return addr;
}

StatusOr<PmAddr> CheckpointProvider::TranslateLoad(ThreadId /*t*/, PmAddr addr,
                                                   std::uint64_t /*size*/) {
  return addr;
}

Status CheckpointProvider::CloseEpoch(ThreadId t) {
  ThreadState& ts = threads_[t];
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);
  // 1. Persist every page touched in the epoch.
  rt.stats().SetCategory(t, CcCategory::kOrdering);
  for (std::uint64_t page : ts.pages_this_epoch) {
    rt.Persist(t, pool_->data_base() + page * kPmPageSize, kPmPageSize);
  }
  // 2. Advance the committed epoch.
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  const PmAddr rec_addr = pool_->cc_area(t).TxRecordAddr();
  TxRecord rec = rt.Load<TxRecord>(t, rec_addr);
  rec.committed_epoch = ts.epoch;
  rt.Store(t, rec_addr, rec);
  rt.Persist(t, rec_addr, sizeof(rec));
  // 3. Invalidate the checkpoint slots.
  std::vector<PmAddr> slots;
  slots.reserve(ts.used_slots);
  for (std::size_t i = 0; i < ts.used_slots; ++i) {
    slots.push_back(pool_->cc_area(t).CkptSlotAddr(i));
  }
  if (!slots.empty()) {
    NEARPM_RETURN_IF_ERROR(rt.CommitLog(pool_->id(), t, slots));
  }
  ++ts.epoch;
  ts.ops_in_epoch = 0;
  ts.used_slots = 0;
  ts.pages_this_epoch.clear();
  ++epochs_closed_;
  return Status::Ok();
}

StatusOr<bool> CheckpointProvider::CommitOp(ThreadId t,
                                            std::span<const AddrRange> dirty) {
  (void)dirty;  // pages persist at epoch close, not per operation
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("CommitOp outside an operation");
  }
  // Confirm this operation's snapshots: the checkpoint manager exposes no
  // later commit point to defer the confirmation to (unlike a transaction's
  // log deletion), so the operation closes once its pre-images are in PM.
  Runtime& rt = pool_->rt();
  {
    Runtime::CcRegion cc(rt, t);
    rt.stats().SetCategory(t, CcCategory::kOrdering);
    rt.WaitUntil(t, ts.snapshot_done);
  }
  // Close at the interval, or early under slot pressure (epoch boundaries
  // only ever fall between operations so each op stays failure-atomic).
  // arg0 records whether this commit reaches a durable point (epoch close);
  // until then the op's pages live only in CPU caches.
  constexpr std::size_t kSlotMargin = 16;
  const bool will_close = ts.ops_in_epoch + 1 >= epoch_ops_ ||
                          ts.used_slots + kSlotMargin >= kCkptSlots;
  NEARPM_TRACE_EVENT(rt.trace(), .phase = TracePhase::kOpCommit, .tid = t,
                     .ts = rt.Now(t), .seq = ts.epoch,
                     .arg0 = will_close ? 1 : 0);
  ts.active = false;
  ++ts.ops_in_epoch;
  if (will_close) {
    NEARPM_RETURN_IF_ERROR(CloseEpoch(t));
    return true;
  }
  return false;
}

Status CheckpointProvider::RecoverThread(ThreadId t) {
  Runtime& rt = pool_->rt();
  const CcArea area = pool_->cc_area(t);
  const TxRecord rec = rt.Load<TxRecord>(t, area.TxRecordAddr());
  // Only pre-images of the open (uncommitted) epoch roll back. A slot with
  // an invalid checksum means its page was never modified afterwards (the
  // copy is ordered before the first update), so skipping it is safe.
  // skip_recovery_replay: fault injection -- scrub without restoring.
  const std::optional<std::uint64_t> open_epoch =
      rt.options().skip_recovery_replay
          ? std::nullopt
          : std::optional(rec.committed_epoch + 1);
  pages_restored_ += pool_->RecoverSlots(t, area.CkptSlotAddr(0), kCkptSlots,
                                         kCkptMagic, open_epoch);
  return Status::Ok();
}

Status CheckpointProvider::Recover() {
  NEARPM_TRACE_EVENT(pool_->rt().trace(), .phase = TracePhase::kMechRecover,
                     .ts = pool_->rt().Now(0));
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    NEARPM_RETURN_IF_ERROR(RecoverThread(t));
    const TxRecord rec =
        pool_->rt().Load<TxRecord>(t, pool_->cc_area(t).TxRecordAddr());
    ThreadState fresh;
    fresh.epoch = rec.committed_epoch + 1;
    threads_[t] = fresh;
  }
  return Status::Ok();
}

void CheckpointProvider::DropVolatile() {
  for (ThreadState& ts : threads_) {
    const std::uint64_t epoch = ts.epoch;
    ts = ThreadState{};
    ts.epoch = epoch;
  }
}

}  // namespace nearpm
