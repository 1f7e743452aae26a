// The NearPM runtime: the software interface of Table 2 plus the simulated
// platform behind it.
//
// A Runtime owns the PM address space, the NearPM devices and the virtual
// clocks of every application thread. PM libraries (src/pmlib) express
// crash-consistency mechanisms in terms of the Table 2 primitives; the
// runtime dispatches each primitive either to the CPU (baseline mode) or to
// the NearPM devices, enforcing Partitioned Persist Ordering along the way:
//
//  * Invariant 1/2 (CPU-NDP): every CPU load/store consults the devices'
//    in-flight access tables and stalls behind conflicting NDP work; CPU
//    pending lines overlapping a request's operands are written back before
//    the command is posted (software-managed coherence).
//  * Invariant 3/4 (NDP-NDP): commands on operands spanning devices are
//    duplicated per device slice; commits in delayed-sync mode are ordered
//    behind a synchronization event that is itself off the CPU's critical
//    path.
#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <source_location>
#include <span>
#include <vector>

#include "src/analyze/sanitizer.h"

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/cc_stats.h"
#include "src/core/log_layout.h"
#include "src/core/options.h"
#include "src/ndp/address_map.h"
#include "src/ndp/device.h"
#include "src/ndp/request.h"
#include "src/pmem/pm_space.h"
#include "src/trace/recorder.h"

namespace nearpm {

struct PrimitiveCounters {
  std::uint64_t undolog_create = 0;
  std::uint64_t applylog = 0;
  std::uint64_t commit_log = 0;
  std::uint64_t ckpoint_create = 0;
  std::uint64_t shadowcpy = 0;
  std::uint64_t raw_copy = 0;
  std::uint64_t duplicated_commands = 0;  // commands spanning devices
  std::uint64_t delayed_syncs = 0;
  std::uint64_t sw_sync_polls = 0;
};

class Runtime {
 public:
  explicit Runtime(const RuntimeOptions& options);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeOptions& options() const { return options_; }
  PmSpace& space() { return space_; }
  RuntimeStats& stats() { return stats_; }
  const PrimitiveCounters& counters() const { return counters_; }
  const NearPmDevice& device(DeviceId d) const { return *devices_[d]; }
  int num_devices() const { return static_cast<int>(devices_.size()); }
  SimTime Now(ThreadId t) const { return stats_.now(t); }

  // ---- Pool management ------------------------------------------------------
  // Registers [base, base+size) as a pool; the translation is installed in
  // every device's address mapping table.
  StatusOr<PoolId> RegisterPool(PmAddr base, std::uint64_t size);
  Status UnregisterPool(PoolId pool);

  // ---- CPU-side PM access (timing + function + Invariant 1/2) ---------------
  // The defaulted source_location parameters capture the issuing call site
  // for the PM-Sanitizer; they cost nothing when no sanitizer is attached.
  void Write(ThreadId t, PmAddr addr, std::span<const std::uint8_t> data,
             const std::source_location& loc = std::source_location::current());
  void Read(ThreadId t, PmAddr addr, std::span<std::uint8_t> out,
            const std::source_location& loc = std::source_location::current());
  // clwb + sfence over the range.
  void Persist(ThreadId t, PmAddr addr, std::uint64_t size,
               const std::source_location& loc = std::source_location::current());
  void Fence(ThreadId t);
  // Pure CPU work (hashing, comparisons, request parsing...).
  void Compute(ThreadId t, double ns);

  template <typename T>
  T Load(ThreadId t, PmAddr addr,
         const std::source_location& loc = std::source_location::current()) {
    T value{};
    Read(t, addr, {reinterpret_cast<std::uint8_t*>(&value), sizeof(T)}, loc);
    return value;
  }
  template <typename T>
  void Store(ThreadId t, PmAddr addr, const T& value,
             const std::source_location& loc = std::source_location::current()) {
    Write(t, addr, AsBytes(value), loc);
  }

  // ---- Crash-consistency region bracketing (Figures 1, 15, 18) --------------
  void BeginCc(ThreadId t) { stats_.BeginCc(t); }
  void EndCc(ThreadId t) { stats_.EndCc(t); }
  class CcRegion {
   public:
    CcRegion(Runtime& rt, ThreadId t) : rt_(rt), t_(t) { rt_.BeginCc(t_); }
    ~CcRegion() { rt_.EndCc(t_); }
    CcRegion(const CcRegion&) = delete;
    CcRegion& operator=(const CcRegion&) = delete;

   private:
    Runtime& rt_;
    ThreadId t_;
  };

  // ---- Table 2 primitives ----------------------------------------------------
  // NearPM_undolog_create: copy `size` bytes at `old_data` into `slot`'s
  // payload and write the slot header (tagged with tx_id) last.
  Status UndologCreate(PoolId pool, ThreadId t, std::uint64_t tx_id,
                       PmAddr old_data, std::uint64_t size, PmAddr slot,
                       const std::source_location& loc =
                           std::source_location::current());
  // NearPM_applylog: copy a redo slot's payload onto its target.
  Status ApplyLog(PoolId pool, ThreadId t, PmAddr slot, std::uint64_t size,
                  PmAddr target,
                  const std::source_location& loc =
                      std::source_location::current());
  // NearPM_commit_log: invalidate the given slot headers. In multi-device
  // delayed mode the invalidations are ordered behind a cross-device
  // synchronization that stays off the CPU's critical path; in SW-sync mode
  // the CPU polls all devices to completion first.
  Status CommitLog(PoolId pool, ThreadId t, std::span<const PmAddr> slots,
                   const std::source_location& loc =
                       std::source_location::current());
  // NearPM_ckpoint_create: copy a page into a checkpoint slot, header last.
  // Returns the device completion time so the caller can synchronize on the
  // snapshot (checkpointing confirms its pre-images; see CheckpointProvider).
  StatusOr<SimTime> CkpointCreate(PoolId pool, ThreadId t, std::uint64_t epoch,
                                  PmAddr page, std::uint64_t size, PmAddr slot,
                                  const std::source_location& loc =
                                      std::source_location::current());
  // NearPM_shadowcpy: copy an existing page to a freshly allocated one.
  Status ShadowCpy(PoolId pool, ThreadId t, PmAddr src_page, PmAddr dst_page,
                   std::uint64_t size,
                   const std::source_location& loc =
                       std::source_location::current());
  // Generic near-memory copy (micro-benchmark). `wait` makes the call
  // synchronous (the CPU polls for completion).
  Status RawCopy(PoolId pool, ThreadId t, PmAddr src, PmAddr dst,
                 std::uint64_t size, bool wait,
                 const std::source_location& loc =
                     std::source_location::current());

  // CPU-polls until every device drained and all delayed syncs completed.
  void DrainDevices(ThreadId t);

  // Stalls thread `t` until virtual time `when` (ordering overhead).
  void WaitUntil(ThreadId t, SimTime when) { stats_.StallUntil(t, when); }

  // Fresh transaction id.
  std::uint64_t NextTxId() { return ++tx_counter_; }

  // ---- Failure injection and hardware recovery (Section 5.3.3) --------------
  // Collapses the functional state to a legal durable image. The image
  // already holds the hardware recovery procedure's effect: every request
  // issued before the last synchronization point all devices reached is
  // durable on every device (PmSpace's sync-frontier repair). Device
  // pipelines and virtual clocks restart from zero. The *software*
  // mechanism recovery (undo rollback, checkpoint restore, ...) is the
  // caller's job, as in the paper.
  CrashReport InjectCrash(Rng& rng);
  // Deterministic variant for the crash fuzzer: the failure instant and the
  // fate of every pending CPU line come from `plan` (crash_time is clamped
  // to the latest point any thread reached), so the resulting durable image
  // is a pure function of the execution prefix and the plan.
  CrashReport InjectCrashAt(const CrashPlan& plan);

  // ---- Observability ---------------------------------------------------------
  // Attaches `trace` (or detaches, with nullptr) to the runtime and every
  // component underneath it: the devices and the PM space record through the
  // same recorder, so one stream carries the full request lifecycle. A crash
  // starts a new trace epoch (virtual clocks restart from zero).
  void AttachTrace(TraceRecorder* trace);
  TraceRecorder* trace() const { return trace_; }

  // Attaches the PM-Sanitizer (or detaches, with nullptr) to the runtime,
  // the PM space and every device. Requires retain_crash_state=true (the
  // sanitizer's retire/sync mirror feeds off PmSpace bookkeeping) and a
  // single-threaded driver.
  void AttachSanitizer(analyze::PmSanitizer* san);
  analyze::PmSanitizer* sanitizer() const { return san_; }

 private:
  struct PendingSync {
    std::uint64_t id = 0;
    SimTime done_at = 0;
  };

  // The one path of every Table 2 command: builds its work, then either
  // charges the CPU baseline's cost and runs the work as CPU stores and
  // persists, or posts it to the devices (IssueNdp). Returns when the work
  // is done: the CPU's time after the stores, or the devices' completion.
  SimTime Execute(const NearPmRequest& request, const AddrRange& read_range,
                  const AddrRange& write_range,
                  const std::source_location& loc, SimTime earliest = 0,
                  bool synchronous = false, bool deferred = false);

  // Splits `work` (global addresses) per destination device and issues the
  // command, duplicated across the participating devices. Returns overall
  // completion time. Updates clocks.
  SimTime IssueNdp(const NearPmRequest& request,
                   const AddrRange& read_range, const AddrRange& write_range,
                   const std::vector<NdpWorkItem>& work, SimTime earliest,
                   bool synchronous, bool deferred = false,
                   const analyze::SourceLoc& loc = {});

  // Builds the functional work decomposition of a request into work_, which
  // the result refers to until the next call.
  const std::vector<NdpWorkItem>& BuildWork(const NearPmRequest& request);
  // Charges the CPU baseline's cost of the same request: the persist-copy
  // of its payload plus metadata generation (undo and checkpoint slots), or
  // the log delete (CommitLog).
  void ChargeCpuWork(const NearPmRequest& request);
  // Splits work items per destination device (interleave stripes), in
  // device order: the memory controller's duplication at issue. Fills
  // per_dev_, which the result refers to until the next call.
  const std::vector<std::vector<NdpWorkItem>>& SplitPerDevice(
      const std::vector<NdpWorkItem>& work);

  // Shared post-failure path: pipeline and clock resets, trace epoch
  // advance.
  CrashReport FinishCrash(CrashReport report, SimTime crash_time);

  // CPU access ordering against in-flight NDP work (Invariant 1/2).
  void HostBarrier(ThreadId t, const AddrRange& range, bool is_write);
  // Write back pending CPU lines overlapping `range` before NDP reads them.
  void CoherenceWriteback(ThreadId t, const AddrRange& range);
  // Retires delayed syncs whose completion time has passed.
  void HarvestSyncs(SimTime now);

  Status CheckPool(PoolId pool, PmAddr addr, std::uint64_t size) const;

  RuntimeOptions options_;
  PmSpace space_;
  AddressMappingTable addr_map_;
  std::vector<std::unique_ptr<NearPmDevice>> devices_;
  RuntimeStats stats_;
  PrimitiveCounters counters_;
  std::uint64_t seq_counter_ = 0;
  std::uint64_t sync_counter_ = 0;
  std::uint64_t tx_counter_ = 0;
  std::vector<PendingSync> pending_syncs_;
  PoolId next_pool_ = 1;
  std::vector<std::uint8_t> scratch_;
  // Reused by every command, so issuing one allocates nothing once they
  // have grown: its work items, their per-device pieces, one item's slices.
  std::vector<NdpWorkItem> work_;
  std::vector<std::vector<NdpWorkItem>> per_dev_;
  std::vector<DeviceSlice> slices_;
  TraceRecorder* trace_ = nullptr;
  analyze::PmSanitizer* san_ = nullptr;
};

}  // namespace nearpm

#endif  // SRC_CORE_RUNTIME_H_
