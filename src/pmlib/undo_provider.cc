#include "src/pmlib/undo_provider.h"

#include <algorithm>

#include "src/core/cc_stats.h"

namespace nearpm {

const NameTable<Mechanism>& MechanismNames() {
  static const NameTable<Mechanism> table{
      {Mechanism::kLogging, "logging"},
      {Mechanism::kRedoLogging, "redo_logging"},
      {Mechanism::kCheckpointing, "checkpointing"},
      {Mechanism::kShadowPaging, "shadow_paging"}};
  return table;
}

const char* MechanismName(Mechanism m) { return MechanismNames().Name(m); }

StatusOr<Mechanism> MechanismFromName(const std::string& name) {
  if (const auto m = MechanismNames().Parse(name)) {
    return *m;
  }
  return InvalidArgument("unknown mechanism \"" + name + "\"");
}

UndoLogProvider::UndoLogProvider(const PmPool* pool)
    : pool_(pool),
      threads_(static_cast<size_t>(pool->layout().threads)) {}

Status UndoLogProvider::BeginOp(ThreadId t) {
  ThreadState& ts = threads_[t];
  if (ts.active) {
    return FailedPrecondition("operation already open on this thread");
  }
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  ts.active = true;
  ts.tx_id = rt.NextTxId();
  ts.used_slots = 0;
  ts.logged.clear();
  NEARPM_TRACE_EVENT(rt.trace(), .phase = TracePhase::kOpBegin, .tid = t,
                     .ts = rt.Now(t), .seq = ts.tx_id);

  TxRecord rec;
  rec.state = static_cast<std::uint64_t>(TxState::kActive);
  rec.tx_id = ts.tx_id;
  const PmAddr rec_addr = pool_->cc_area(t).TxRecordAddr();
  rt.Store(t, rec_addr, rec);
  rt.Persist(t, rec_addr, sizeof(rec));
  return Status::Ok();
}

StatusOr<PmAddr> UndoLogProvider::PrepareStore(ThreadId t, PmAddr addr,
                                               std::uint64_t size) {
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("PrepareStore outside an operation");
  }
  const AddrRange range{addr, addr + size};
  // Already snapshotted this transaction?
  for (const AddrRange& logged : ts.logged) {
    if (logged.begin <= range.begin && range.end <= logged.end) {
      return addr;
    }
  }
  if (ts.used_slots >= kLogSlots) {
    return ResourceExhausted("undo log slots exhausted in one operation");
  }
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);
  const PmAddr slot = pool_->cc_area(t).UndoSlotAddr(ts.used_slots);
  NEARPM_RETURN_IF_ERROR(
      rt.UndologCreate(pool_->id(), t, ts.tx_id, addr, size, slot));
  ++ts.used_slots;
  ts.logged.push_back(range);
  return addr;
}

StatusOr<PmAddr> UndoLogProvider::TranslateLoad(ThreadId /*t*/, PmAddr addr,
                                                std::uint64_t /*size*/) {
  return addr;
}

StatusOr<bool> UndoLogProvider::CommitOp(ThreadId t,
                                         std::span<const AddrRange> dirty) {
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("CommitOp outside an operation");
  }
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);
  // 1. Persist the in-place updates (ordering category: flush + fence).
  rt.stats().SetCategory(t, CcCategory::kOrdering);
  for (const AddrRange& range : dirty) {
    rt.Persist(t, range.begin, range.size());
  }
  // 2. Commit marker.
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  const PmAddr rec_addr = pool_->cc_area(t).TxRecordAddr();
  TxRecord rec;
  rec.state = static_cast<std::uint64_t>(TxState::kCommitted);
  rec.tx_id = ts.tx_id;
  rt.Store(t, rec_addr, rec);
  rt.Persist(t, rec_addr, sizeof(rec));
  // 3. Delete the logs (off the critical path under delayed sync).
  std::vector<PmAddr> slots;
  slots.reserve(ts.used_slots);
  for (std::size_t i = 0; i < ts.used_slots; ++i) {
    slots.push_back(pool_->cc_area(t).UndoSlotAddr(i));
  }
  if (!slots.empty()) {
    NEARPM_RETURN_IF_ERROR(rt.CommitLog(pool_->id(), t, slots));
  }
  // The record stays COMMITTED until the next BeginOp overwrites it: a crash
  // in between scrubs any leftover slots without applying them (state is not
  // ACTIVE), so an explicit IDLE write would buy nothing.
  NEARPM_TRACE_EVENT(rt.trace(), .phase = TracePhase::kOpCommit, .tid = t,
                     .ts = rt.Now(t), .seq = ts.tx_id, .arg0 = 1);
  ts.active = false;
  return true;
}

Status UndoLogProvider::RecoverThread(ThreadId t) {
  Runtime& rt = pool_->rt();
  const CcArea area = pool_->cc_area(t);
  const TxRecord rec = rt.Load<TxRecord>(t, area.TxRecordAddr());
  // skip_recovery_replay is the fuzzer's fault injection: scrub the journal
  // without replaying it, as a recovery that forgot the frontier would.
  const bool rollback =
      rec.state == static_cast<std::uint64_t>(TxState::kActive) &&
      !rt.options().skip_recovery_replay;

  // Walk the slots newest-first so overlapping snapshots restore the oldest
  // pre-image last.
  std::vector<std::uint8_t> payload;
  bool rolled_any = false;
  for (std::size_t i = kLogSlots; i > 0; --i) {
    const PmAddr slot = area.UndoSlotAddr(i - 1);
    const SlotHeader header = rt.Load<SlotHeader>(t, slot);
    if (header.magic != kUndoMagic) {
      continue;
    }
    bool valid = header.size > 0 && header.size <= kMaxLogData;
    if (valid) {
      payload.resize(header.size);
      rt.Read(t, CcArea::SlotData(slot), payload);
      valid = Checksum64(payload) == header.checksum;
    }
    if (rollback && valid && header.tag == rec.tx_id) {
      rt.Write(t, header.target, payload);
      rt.Persist(t, header.target, header.size);
      rolled_any = true;
    }
    // Scrub the slot either way: it belongs to a finished or rolled-back tx.
    const SlotHeader zero;
    rt.Store(t, slot, zero);
    rt.Persist(t, slot, sizeof(zero));
  }
  if (rolled_any) {
    ++rollbacks_;
  }

  TxRecord idle;
  idle.state = static_cast<std::uint64_t>(TxState::kIdle);
  rt.Store(t, area.TxRecordAddr(), idle);
  rt.Persist(t, area.TxRecordAddr(), sizeof(idle));
  return Status::Ok();
}

Status UndoLogProvider::Recover() {
  NEARPM_TRACE_EVENT(pool_->rt().trace(), .phase = TracePhase::kMechRecover,
                     .ts = pool_->rt().Now(0));
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    NEARPM_RETURN_IF_ERROR(RecoverThread(t));
    threads_[t] = ThreadState{};
  }
  return Status::Ok();
}

void UndoLogProvider::DropVolatile() {
  for (ThreadState& ts : threads_) {
    ts = ThreadState{};
  }
}

}  // namespace nearpm
