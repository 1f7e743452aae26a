#include "src/core/runtime.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/sim/timeline.h"

namespace nearpm {

const NameTable<ExecMode>& ExecModeNames() {
  static const NameTable<ExecMode> table{
      {ExecMode::kCpuBaseline, "baseline"},
      {ExecMode::kNdpSingleDevice, "nearpm_sd"},
      {ExecMode::kNdpMultiSwSync, "nearpm_md_swsync"},
      {ExecMode::kNdpMultiDelayed, "nearpm_md"}};
  return table;
}

const char* ExecModeName(ExecMode mode) { return ExecModeNames().Name(mode); }

StatusOr<ExecMode> ExecModeFromName(const std::string& name) {
  if (const auto mode = ExecModeNames().Parse(name)) {
    return *mode;
  }
  return InvalidArgument("unknown execution mode \"" + name + "\"");
}

namespace {

PmSpaceOptions SpaceOptionsFor(const RuntimeOptions& o) {
  PmSpaceOptions s;
  s.size = o.pm_size;
  s.num_devices = o.EffectiveDevices();
  s.stripe = o.interleave_stripe;
  s.retain_crash_state = o.retain_crash_state;
  s.pending_line_survival = o.pending_line_survival;
  s.enforce_observation = o.enforce_ppo;
  s.skip_frontier_replay = o.skip_recovery_replay;
  return s;
}

}  // namespace

Runtime::Runtime(const RuntimeOptions& options)
    : options_(options),
      space_(SpaceOptionsFor(options)),
      addr_map_(&space_.interleave()),
      stats_(options.max_threads),
      per_dev_(static_cast<std::size_t>(options.EffectiveDevices())) {
  const int devices = options_.EffectiveDevices();
  for (int d = 0; d < devices; ++d) {
    devices_.push_back(std::make_unique<NearPmDevice>(
        static_cast<DeviceId>(d), &options_.hw, &space_));
  }
}

// ---- Pools ------------------------------------------------------------------

StatusOr<PoolId> Runtime::RegisterPool(PmAddr base, std::uint64_t size) {
  if (base + size > space_.size() || base + size < base) {
    return OutOfRange("pool escapes PM space");
  }
  const PoolId id = next_pool_++;
  // Identity virtual mapping: commands carry global addresses; devices still
  // validate pool bounds and derive local offsets through the table.
  NEARPM_RETURN_IF_ERROR(addr_map_.RegisterPool(id, base, base, size));
  return id;
}

Status Runtime::UnregisterPool(PoolId pool) {
  return addr_map_.UnregisterPool(pool);
}

Status Runtime::CheckPool(PoolId pool, PmAddr addr, std::uint64_t size) const {
  auto tr = addr_map_.Translate(pool, addr, size);
  if (!tr.ok()) {
    return tr.status();
  }
  return Status::Ok();
}

// ---- CPU-side access --------------------------------------------------------

void Runtime::HostBarrier(ThreadId t, const AddrRange& range, bool is_write) {
  if (!options_.UsesNdp() || !options_.enforce_ppo) {
    return;
  }
  const SimTime begin = stats_.now(t);
  for (auto& dev : devices_) {
    const SimTime free_at =
        dev->HostAccessBarrier(range, is_write, stats_.now(t));
    stats_.StallUntil(t, free_at);
  }
  if (stats_.now(t) > begin) {
    NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kCpuStall, .tid = t,
                      .ts = begin, .dur = stats_.now(t) - begin,
                      .range = range, .arg0 = is_write ? 1u : 0u);
  }
}

void Runtime::CoherenceWriteback(ThreadId t, const AddrRange& range) {
  if (!options_.enforce_ppo || range.empty()) {
    return;
  }
  // The hardware guard persists any pending operand line before the command
  // executes: mirror that in the sanitizer's shadow state ahead of the
  // fast-path bailout, without the NPM005 redundancy lint (the guard only
  // touches lines that are actually pending).
  NEARPM_SAN_HOOK(san_, OnCoherenceWriteback(t, range));
  if (!space_.retain_crash_state()) {
    return;
  }
  const std::uint64_t n = space_.PendingLinesIn(range);
  if (n == 0) {
    return;
  }
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCoherenceWb, .tid = t,
                     .ts = stats_.now(t), .range = range, .arg0 = n);
  stats_.ChargeAs(t,
                  static_cast<double>(n) * options_.hw.cost.cpu_flush_line_ns +
                      options_.hw.cost.cpu_fence_ns,
                  CcCategory::kOrdering);
  space_.CpuPersist(range.begin, range.size());
}

void Runtime::Write(ThreadId t, PmAddr addr,
                    std::span<const std::uint8_t> data,
                    const std::source_location& loc) {
  if (data.empty()) {
    return;
  }
  // Stores land in the cache hierarchy and do not reach the PM device, so
  // they need no ordering against in-flight NDP work (the relaxation at the
  // heart of PPO): only the later persist -- or a natural eviction, handled
  // by the crash model's write-back guards -- is ordered by the device.
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCpuWrite, .tid = t,
                     .ts = stats_.now(t),
                     .range = AddrRange{addr, addr + data.size()});
  stats_.Charge(t, static_cast<double>(CostModel::Lines(data.size())) *
                       options_.hw.cost.cpu_store_line_ns);
  NEARPM_SAN_HOOK(san_, OnCpuWrite(t, AddrRange{addr, addr + data.size()},
                                   stats_.now(t), analyze::FromStd(loc)));
  space_.CpuWrite(addr, data);
}

void Runtime::Read(ThreadId t, PmAddr addr, std::span<std::uint8_t> out,
                   const std::source_location& loc) {
  if (out.empty()) {
    return;
  }
  const AddrRange range{addr, addr + out.size()};
  HostBarrier(t, range, /*is_write=*/false);
  // Recorded post-stall: Invariant 1 says the load's architectural time must
  // fall outside every conflicting request's execution window.
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCpuRead, .tid = t,
                     .ts = stats_.now(t), .range = range);
  stats_.Charge(t, static_cast<double>(CostModel::Lines(out.size())) *
                       options_.hw.cost.cpu_cached_read_ns);
  NEARPM_SAN_HOOK(san_, OnCpuRead(t, range, stats_.now(t),
                                  analyze::FromStd(loc)));
  space_.CpuRead(addr, out);
}

void Runtime::Persist(ThreadId t, PmAddr addr, std::uint64_t size,
                      const std::source_location& loc) {
  if (size == 0) {
    return;
  }
  NEARPM_SAN_HOOK(san_, OnFlush(t, AddrRange{addr, addr + size},
                                stats_.now(t), analyze::FromStd(loc)));
  // The write-back enters the device's host read/write queue, which lives
  // inside the persistence domain: the fence waits for queue *acceptance*
  // only. The queue drains behind conflicting in-flight NDP requests
  // (Invariants 1/2, Figure 10), so those requests are durable at any later
  // crash -- but the CPU does not stall.
  if (options_.UsesNdp() && options_.enforce_ppo) {
    const AddrRange range{addr, addr + size};
    for (auto& dev : devices_) {
      dev->HostWritebackAccepted(range, stats_.now(t));
    }
  }
  // Recorded after queue acceptance so the devices' kRetire events order
  // before the persist (Invariant 2 reads the stream in record order).
  NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kCpuPersist, .tid = t,
                    .ts = stats_.now(t),
                    .dur = NsToTime(options_.hw.cost.CpuPersistNs(size)),
                    .range = AddrRange{addr, addr + size});
  stats_.Charge(t, options_.hw.cost.CpuPersistNs(size));
  space_.CpuPersist(addr, size);
  NEARPM_SAN_HOOK(san_, OnFence(t));
}

void Runtime::Fence(ThreadId t) {
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCpuFence, .tid = t,
                     .ts = stats_.now(t));
  stats_.Charge(t, options_.hw.cost.cpu_fence_ns);
  NEARPM_SAN_HOOK(san_, OnFence(t));
}

void Runtime::Compute(ThreadId t, double ns) { stats_.Charge(t, ns); }

// ---- NDP issue machinery ----------------------------------------------------

const std::vector<NdpWorkItem>& Runtime::BuildWork(
    const NearPmRequest& request) {
  work_.clear();
  switch (request.op) {
    case NearPmOp::kUndologCreate:
    case NearPmOp::kCkpointCreate: {
      // Payload copy first, validity header last.
      work_.push_back(NdpWorkItem{NdpWorkItem::Kind::kCopy, request.addr,
                                  CcArea::SlotData(request.dst), request.size,
                                  {}});
      scratch_.resize(request.size);
      space_.NdpRead(request.addr, scratch_);
      SlotHeader header;
      header.magic = request.op == NearPmOp::kUndologCreate ? kUndoMagic
                                                            : kCkptMagic;
      header.tag = request.tag;
      header.target = request.addr;
      header.size = request.size;
      header.checksum = Checksum64(scratch_);
      static_assert(sizeof(header) <= NdpWorkItem::kMaxLiteral);
      NdpWorkItem& lit = work_.emplace_back();
      lit.kind = NdpWorkItem::Kind::kLiteral;
      lit.dst = request.dst;
      lit.size = sizeof(header);
      std::memcpy(lit.literal.data(), &header, sizeof(header));
      break;
    }
    case NearPmOp::kApplyLog:
      work_.push_back(NdpWorkItem{NdpWorkItem::Kind::kCopy,
                                  CcArea::SlotData(request.addr), request.dst,
                                  request.size,
                                  {}});
      break;
    case NearPmOp::kCommitLog: {
      static_assert(kSlotHeaderSize <= NdpWorkItem::kMaxLiteral);
      NdpWorkItem& lit = work_.emplace_back();  // a zeroed header
      lit.kind = NdpWorkItem::Kind::kLiteral;
      lit.dst = request.addr;
      lit.size = kSlotHeaderSize;
      break;
    }
    case NearPmOp::kShadowCpy:
    case NearPmOp::kRawCopy:
      work_.push_back(NdpWorkItem{NdpWorkItem::Kind::kCopy, request.addr,
                                  request.dst, request.size,
                                  {}});
      break;
  }
  return work_;
}

void Runtime::ChargeCpuWork(const NearPmRequest& request) {
  const CostModel& cost = options_.hw.cost;
  const ThreadId t = request.thread;
  if (request.op == NearPmOp::kCommitLog) {
    stats_.ChargeAs(t, cost.cpu_log_delete_ns, CcCategory::kMetadata);
    return;
  }
  stats_.ChargeAs(t, cost.CpuCopyNs(request.size), CcCategory::kDataMovement);
  if (request.op == NearPmOp::kUndologCreate ||
      request.op == NearPmOp::kCkpointCreate) {
    stats_.ChargeAs(t, cost.cpu_metadata_ns, CcCategory::kMetadata);
  }
}

const std::vector<std::vector<NdpWorkItem>>& Runtime::SplitPerDevice(
    const std::vector<NdpWorkItem>& work) {
  const InterleaveMap& il = space_.interleave();
  for (std::vector<NdpWorkItem>& dev_work : per_dev_) {
    dev_work.clear();
  }
  for (const NdpWorkItem& item : work) {
    slices_.clear();
    il.Split(AddrRange{item.dst, item.dst + item.size}, &slices_);
    for (const DeviceSlice& slice : slices_) {
      NdpWorkItem& piece = per_dev_[slice.device].emplace_back();
      piece.kind = item.kind;
      piece.dst = slice.global.begin;
      piece.size = slice.global.size();
      const std::uint64_t offset = slice.global.begin - item.dst;
      if (item.kind == NdpWorkItem::Kind::kCopy) {
        piece.src = item.src + offset;
      } else {
        std::memcpy(piece.literal.data(), item.literal.data() + offset,
                    piece.size);
      }
    }
  }
  return per_dev_;
}

SimTime Runtime::Execute(const NearPmRequest& request,
                         const AddrRange& read_range,
                         const AddrRange& write_range,
                         const std::source_location& loc, SimTime earliest,
                         bool synchronous, bool deferred) {
  const ThreadId t = request.thread;
  const std::vector<NdpWorkItem>& work = BuildWork(request);
  // Log deletion stays in the caller's metadata category; every other
  // command is data movement, on either path.
  if (request.op != NearPmOp::kCommitLog) {
    stats_.SetCategory(t, CcCategory::kDataMovement);
  }
  if (options_.UsesNdp()) {
    return IssueNdp(request, read_range, write_range, work, earliest,
                    synchronous, deferred, analyze::FromStd(loc));
  }
  // CPU baseline: the same work items as CPU stores, each persisted.
  ChargeCpuWork(request);
  for (const NdpWorkItem& item : work) {
    if (item.kind == NdpWorkItem::Kind::kCopy) {
      scratch_.resize(item.size);
      space_.CpuRead(item.src, scratch_);
      space_.CpuWrite(item.dst, scratch_);
    } else {
      space_.CpuWrite(item.dst, item.literal_bytes());
    }
    space_.CpuPersist(item.dst, item.size);
  }
  return stats_.now(t);
}

SimTime Runtime::IssueNdp(const NearPmRequest& request,
                          const AddrRange& read_range,
                          const AddrRange& write_range,
                          const std::vector<NdpWorkItem>& work,
                          SimTime earliest, bool synchronous, bool deferred,
                          const analyze::SourceLoc& loc) {
  const ThreadId t = request.thread;
  HarvestSyncs(stats_.now(t));
  CoherenceWriteback(t, read_range);
  CoherenceWriteback(t, write_range);

  // The memory controller duplicates the command to every device the
  // operand touches.
  const std::vector<std::vector<NdpWorkItem>>& per_dev = SplitPerDevice(work);

  // Checked at the doorbell, after the write-back guard: any operand line
  // still in the sanitizer's shadow store buffer is an NPM002; commit-class
  // (deferred) commands additionally check cross-device sync (NPM004).
  if (san_ != nullptr) {
    std::uint32_t touched_mask = 0;
    for (std::size_t d = 0; d < per_dev.size() && d < 32; ++d) {
      if (!per_dev[d].empty()) {
        touched_mask |= 1u << d;
      }
    }
    san_->OnNdpCommand(t, read_range, write_range, stats_.now(t), deferred,
                       touched_mask, loc);
  }

  // The CPU posts one command; the memory controller duplicates it to every
  // device the operand touches (Section 6.1), so the devices receive it in
  // parallel and the CPU pays a single MMIO write (plus any FIFO
  // backpressure, whichever device is worst).
  const SimTime post_time = stats_.now(t);
  SimTime cpu_now = post_time;
  SimTime completion = 0;
  int participants = 0;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (per_dev[d].empty()) {
      continue;
    }
    const NearPmDevice::IssueResult res =
        deferred ? devices_[d]->IssueDeferred(request.seq, post_time,
                                              write_range, per_dev[d],
                                              earliest, request.op)
                 : devices_[d]->Issue(request.seq, post_time, read_range,
                                      write_range, per_dev[d], earliest,
                                      request.op);
    cpu_now = std::max(cpu_now, res.cpu_release);
    completion = std::max(completion, res.completion);
    ++participants;
  }
  assert(participants > 0);
  if (participants > 1) {
    // Multi-device handler: peers exchange status bits before the duplicated
    // command counts as complete (Figure 11).
    completion += NsToTime(options_.hw.cost.ndp_remote_status_ns);
    ++counters_.duplicated_commands;
  }

  const double post_ns = static_cast<double>(cpu_now - stats_.now(t));
  stats_.ChargeAs(t, post_ns, stats_.Category(t));
  stats_.AddNdpBusy(cpu_now, completion);

  if (synchronous) {
    stats_.StallUntil(t, completion);
    for (std::size_t d = 0; d < per_dev.size(); ++d) {
      if (!per_dev[d].empty()) {
        space_.RetireRequest(static_cast<DeviceId>(d), request.seq);
      }
    }
  }
  return completion;
}

void Runtime::HarvestSyncs(SimTime now) {
  while (!pending_syncs_.empty() && pending_syncs_.front().done_at <= now) {
    const std::uint64_t id = pending_syncs_.front().id;
    space_.RetireThroughSync(id);
    pending_syncs_.erase(pending_syncs_.begin());
  }
}

// ---- Table 2 primitives -----------------------------------------------------

namespace {

AddrRange RangeOf(PmAddr addr, std::uint64_t size) {
  return AddrRange{addr, addr + size};
}

}  // namespace

Status Runtime::UndologCreate(PoolId pool, ThreadId t, std::uint64_t tx_id,
                              PmAddr old_data, std::uint64_t size, PmAddr slot,
                              const std::source_location& loc) {
  if (size == 0 || size > kMaxLogData) {
    return InvalidArgument("undo log payload size out of range");
  }
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, old_data, size));
  ++counters_.undolog_create;
  NearPmRequest req{++seq_counter_, NearPmOp::kUndologCreate, pool, t,
                    old_data,       size,                     slot, tx_id};
  Execute(req, RangeOf(old_data, size), RangeOf(slot, kSlotSize), loc);
  return Status::Ok();
}

Status Runtime::ApplyLog(PoolId pool, ThreadId t, PmAddr slot,
                         std::uint64_t size, PmAddr target,
                         const std::source_location& loc) {
  if (size == 0 || size > kMaxLogData) {
    return InvalidArgument("redo log payload size out of range");
  }
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, target, size));
  ++counters_.applylog;
  NearPmRequest req{++seq_counter_, NearPmOp::kApplyLog, pool, t,
                    slot,           size,                target, 0};
  Execute(req, RangeOf(CcArea::SlotData(slot), size), RangeOf(target, size),
          loc);
  return Status::Ok();
}

Status Runtime::CommitLog(PoolId pool, ThreadId t,
                          std::span<const PmAddr> slots,
                          const std::source_location& loc) {
  ++counters_.commit_log;
  stats_.SetCategory(t, CcCategory::kMetadata);
  SimTime earliest = 0;
  const bool multi = options_.MultiDevice() && options_.enforce_ppo;
  if (multi && options_.mode == ExecMode::kNdpMultiSwSync) {
    // Software synchronization: the CPU polls every device's completion
    // status before it allows the logs to be deleted.
    const SimTime poll_begin = stats_.now(t);
    SimTime target = stats_.now(t);
    for (auto& dev : devices_) {
      target = std::max(target, dev->last_completion());
    }
    stats_.StallUntil(t, target);
    stats_.ChargeAs(t,
                    options_.hw.cost.cpu_poll_round_ns *
                        static_cast<double>(devices_.size()),
                    CcCategory::kOrdering);
    ++counters_.sw_sync_polls;
    NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kSwSyncPoll, .tid = t,
                      .ts = poll_begin, .dur = stats_.now(t) - poll_begin);
    if (space_.retain_crash_state()) {
      const std::uint64_t sync_id = ++sync_counter_;
      space_.SyncMarker(sync_id);
      space_.RetireThroughSync(sync_id);
      NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kSyncMarker,
                         .pid = kTraceSyncPid, .ts = poll_begin,
                         .seq = sync_id);
      NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kSyncComplete,
                         .pid = kTraceSyncPid, .ts = stats_.now(t),
                         .seq = sync_id);
    }
  } else if (multi && options_.mode == ExecMode::kNdpMultiDelayed) {
    // Delayed synchronization (PPO): the deletes are ordered behind a
    // cross-device sync event that completes off the CPU's critical path.
    const std::uint64_t sync_id = ++sync_counter_;
    if (space_.retain_crash_state()) {
      space_.SyncMarker(sync_id);
    }
    SimTime done = 0;
    for (auto& dev : devices_) {
      done = std::max(done, dev->last_completion());
    }
    done += NsToTime(options_.hw.cost.ndp_remote_status_ns);
    pending_syncs_.push_back(PendingSync{sync_id, done});
    ++counters_.delayed_syncs;
    earliest = done;
    NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kSyncMarker,
                       .pid = kTraceSyncPid, .ts = stats_.now(t),
                       .seq = sync_id);
    NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kSyncComplete,
                       .pid = kTraceSyncPid, .ts = done, .seq = sync_id);
  }

  for (PmAddr slot : slots) {
    // Log deletion runs on the maintenance path: off the units, off the
    // critical path (Section 5.3.2).
    NearPmRequest req{++seq_counter_, NearPmOp::kCommitLog, pool, t,
                      slot,           kSlotHeaderSize,      0,    0};
    Execute(req, AddrRange{}, RangeOf(slot, kSlotHeaderSize), loc, earliest,
            /*synchronous=*/false, /*deferred=*/true);
  }
  return Status::Ok();
}

StatusOr<SimTime> Runtime::CkpointCreate(PoolId pool, ThreadId t,
                                         std::uint64_t epoch, PmAddr page,
                                         std::uint64_t size, PmAddr slot,
                                         const std::source_location& loc) {
  if (size == 0 || size > kMaxLogData) {
    return InvalidArgument("checkpoint payload size out of range");
  }
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, page, size));
  ++counters_.ckpoint_create;
  NearPmRequest req{++seq_counter_, NearPmOp::kCkpointCreate, pool, t,
                    page,           size,                     slot, epoch};
  return Execute(req, RangeOf(page, size), RangeOf(slot, kSlotSize), loc);
}

Status Runtime::ShadowCpy(PoolId pool, ThreadId t, PmAddr src_page,
                          PmAddr dst_page, std::uint64_t size,
                          const std::source_location& loc) {
  if (size == 0 || size > kPmPageSize) {
    return InvalidArgument("shadow copy size out of range");
  }
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, src_page, size));
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, dst_page, size));
  ++counters_.shadowcpy;
  NearPmRequest req{++seq_counter_, NearPmOp::kShadowCpy, pool, t,
                    src_page,       size,                 dst_page, 0};
  Execute(req, RangeOf(src_page, size), RangeOf(dst_page, size), loc);
  return Status::Ok();
}

Status Runtime::RawCopy(PoolId pool, ThreadId t, PmAddr src, PmAddr dst,
                        std::uint64_t size, bool wait,
                        const std::source_location& loc) {
  if (size == 0) {
    return InvalidArgument("copy size must be nonzero");
  }
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, src, size));
  NEARPM_RETURN_IF_ERROR(CheckPool(pool, dst, size));
  ++counters_.raw_copy;
  NearPmRequest req{++seq_counter_, NearPmOp::kRawCopy, pool, t,
                    src,            size,               dst,  0};
  Execute(req, RangeOf(src, size), RangeOf(dst, size), loc, /*earliest=*/0,
          wait);
  return Status::Ok();
}

void Runtime::DrainDevices(ThreadId t) {
  if (!options_.UsesNdp()) {
    return;
  }
  const SimTime drain_begin = stats_.now(t);
  SimTime target = stats_.now(t);
  for (auto& dev : devices_) {
    target = std::max(target, dev->last_any_completion());
  }
  for (const PendingSync& s : pending_syncs_) {
    target = std::max(target, s.done_at);
  }
  stats_.StallUntil(t, target);
  stats_.ChargeAs(t, options_.hw.cost.cpu_poll_round_ns, CcCategory::kOrdering);
  NEARPM_TRACE_SPAN(trace_, .phase = TracePhase::kCpuDrain, .tid = t,
                    .ts = drain_begin, .dur = stats_.now(t) - drain_begin);
  if (space_.retain_crash_state()) {
    const std::uint64_t sync_id = ++sync_counter_;
    space_.SyncMarker(sync_id);
    space_.RetireThroughSync(sync_id);
  }
  pending_syncs_.clear();
}

// ---- Failure ----------------------------------------------------------------

CrashReport Runtime::InjectCrash(Rng& rng) {
  // The power fails "now" -- at the latest point any CPU thread reached.
  // NDP work still executing past this instant is truncated or lost.
  const SimTime crash_time = stats_.MaxThreadTime();
  return FinishCrash(space_.Crash(rng, crash_time), crash_time);
}

CrashReport Runtime::InjectCrashAt(const CrashPlan& plan) {
  CrashPlan clamped = plan;
  clamped.crash_time =
      std::max<std::uint64_t>(plan.crash_time, stats_.MaxThreadTime());
  // Delayed syncs that genuinely completed before the (possibly later)
  // failure instant retire their windows first, exactly as live execution
  // would have at the next issue.
  HarvestSyncs(clamped.crash_time);
  return FinishCrash(space_.Crash(clamped), clamped.crash_time);
}

CrashReport Runtime::FinishCrash(CrashReport report, SimTime crash_time) {
  NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCrash, .ts = crash_time,
                     .arg0 = report.frontier_sync);
  // Store buffers and in-flight clocks are volatile: a power failure clears
  // the sanitizer's shadow state with them.
  NEARPM_SAN_HOOK(san_, OnCrash());

  // Hardware recovery (Section 5.3.3) replays the persistence-domain
  // request FIFO up to the latest synchronization point every device had
  // reached. PmSpace::Crash has already applied it to the image: its
  // sync-frontier repair made every request issued before that point durable
  // on every device, and requests past it are left to the software
  // mechanism's recovery (their logs are intact -- that is what delayed
  // synchronization guarantees).
  pending_syncs_.clear();
  for (auto& dev : devices_) {
    dev->Reset();
  }
  stats_.Reset();
  // Virtual clocks restart from zero: later timestamps alias pre-crash ones,
  // so the trace moves to a fresh epoch.
  if (trace_ != nullptr) {
    trace_->NextEpoch();
  }
  return report;
}

void Runtime::AttachTrace(TraceRecorder* trace) {
  trace_ = trace;
  space_.set_trace(trace);
  for (auto& dev : devices_) {
    dev->set_trace(trace);
  }
}

void Runtime::AttachSanitizer(analyze::PmSanitizer* san) {
  // The sanitizer mirrors retire/sync bookkeeping that PmSpace only performs
  // with crash-state retention on.
  assert(san == nullptr || options_.retain_crash_state);
  san_ = san;
  space_.set_sanitizer(san);
  for (auto& dev : devices_) {
    dev->set_sanitizer(san);
  }
}

}  // namespace nearpm
