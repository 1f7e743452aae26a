// One NearPM device (Figures 8 and 9).
//
// The device model couples two views of every request:
//  * timing -- the request flows through the MMIO command post, the Request
//    FIFO (backpressure when its 32 entries are occupied), the Dispatcher
//    (decode + translate + in-flight conflict check) and finally one of the
//    NearPM units (metadata generator, load/store unit, DMA engine), each a
//    virtual-time resource;
//  * function -- the request's work items are applied to PmSpace, tagged with
//    the device id and request seq so a crash can roll back exactly what a
//    real power failure would lose.
#ifndef SRC_NDP_DEVICE_H_
#define SRC_NDP_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/types.h"
#include "src/hwmodel/hw_config.h"
#include "src/ndp/inflight_table.h"
#include "src/ndp/pipeline.h"
#include "src/ndp/request.h"
#include "src/pmem/pm_space.h"
#include "src/sim/timeline.h"
#include "src/trace/recorder.h"

namespace nearpm {

struct DeviceStats {
  std::uint64_t requests = 0;
  std::uint64_t dispatcher_conflict_stalls = 0;  // NDP-NDP ordering delays
  std::uint64_t host_access_stalls = 0;          // CPU loads stalled on NDP
  std::uint64_t host_buffered_writebacks = 0;    // clwbs queued behind NDP
  std::uint64_t fifo_backpressure_stalls = 0;
  std::uint64_t lsq_stalls = 0;  // dispatch waited on a full unit LSQ
};

class NearPmDevice {
 public:
  // `hw` supplies the full device geometry -- unit count, FIFO depth,
  // pipeline stage widths and the platform cost constants -- and must
  // outlive the device (the Runtime's options own it).
  NearPmDevice(DeviceId id, const hwmodel::HwConfig* hw, PmSpace* space);

  NearPmDevice(const NearPmDevice&) = delete;
  NearPmDevice& operator=(const NearPmDevice&) = delete;

  struct IssueResult {
    SimTime cpu_release = 0;  // when the posting CPU thread may continue
    SimTime completion = 0;   // when the device finishes executing
  };

  // Posts one request slice to this device. `read_range` / `write_range` are
  // the global address ranges the request touches on this device (either may
  // be empty). `earliest_start` lets the caller impose additional ordering
  // (e.g., a delayed cross-device synchronization the request must follow).
  // `op` only labels the request in the event trace.
  IssueResult Issue(std::uint64_t seq, SimTime cpu_now,
                    const AddrRange& read_range, const AddrRange& write_range,
                    const std::vector<NdpWorkItem>& work,
                    SimTime earliest_start = 0,
                    NearPmOp op = NearPmOp::kRawCopy);

  // Host load ordering (Invariants 1 and 2, Figure 10): returns the time at
  // which a CPU access to `range` may proceed, stalled behind any
  // conflicting in-flight request; those requests become architecturally
  // observed and are retired in PmSpace. Loads must stall -- the CPU needs
  // the data.
  SimTime HostAccessBarrier(const AddrRange& range, bool is_write,
                            SimTime now);

  // Host write-back ordering: a clwb'd line is *accepted* into the host
  // read/write queue -- which sits inside the persistence domain -- without
  // stalling the CPU. The queue drains each entry only after the conflicting
  // in-flight requests complete, and a power failure replays queue and
  // request FIFO together, so the conflicting requests are durable at any
  // later crash (retired), while the CPU's fence only waits for queue
  // acceptance.
  void HostWritebackAccepted(const AddrRange& range, SimTime now);

  // Deferred maintenance work (log deletion ordered behind a delayed
  // synchronization, Section 5.3.2): executed by the Multi-device handler's
  // own engine so it neither occupies the Request FIFO nor blocks the
  // NearPM units -- "not on the critical path". Conflicts with later
  // requests on the same addresses are still detected through the in-flight
  // table.
  IssueResult IssueDeferred(std::uint64_t seq, SimTime cpu_now,
                            const AddrRange& write_range,
                            const std::vector<NdpWorkItem>& work,
                            SimTime earliest_start,
                            NearPmOp op = NearPmOp::kCommitLog);

  // Functional execution of one request slice: applies `work` to PmSpace in
  // order, every write tagged with this device and `seq`. Issue and
  // IssueDeferred end with it; hardware recovery calls it directly to
  // re-execute a journalled request.
  void Apply(std::uint64_t seq, const std::vector<NdpWorkItem>& work);

  // Completion time of everything issued to this device so far (used by the
  // multi-device handler to place synchronization points; deferred
  // maintenance work is excluded -- deleting recovery data of an already
  // committed transaction needs no ordering against later synchronizations).
  SimTime last_completion() const { return last_completion_; }
  // Completion of everything including deferred maintenance (drain target).
  SimTime last_any_completion() const {
    return std::max(last_completion_, deferred_.free_at());
  }

  DeviceId id() const { return id_; }
  const DeviceStats& stats() const { return stats_; }

  // Attaches (or detaches, with nullptr) the event recorder.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Attaches (or detaches) the PM-Sanitizer; every request slice this device
  // executes is then registered on the sanitizer's per-device clock.
  void set_sanitizer(analyze::PmSanitizer* san) { san_ = san; }

  void Reset();

 private:
  DeviceId id_;
  const hwmodel::HwConfig* hw_;
  const CostModel* cost_;  // &hw_->cost, cached for the timing formulas
  PmSpace* space_;
  UnitPipeline pipe_;
  Timeline deferred_;  // the multi-device handler's maintenance engine
  std::size_t fifo_capacity_;
  std::deque<SimTime> fifo_dispatch_times_;  // when each occupant leaves
  InflightTable inflight_;
  SimTime last_completion_ = 0;
  DeviceStats stats_;
  std::vector<std::uint8_t> copy_buffer_;
  std::vector<std::uint64_t> conflicting_;  // reused by the host orderings
  TraceRecorder* trace_ = nullptr;
  analyze::PmSanitizer* san_ = nullptr;
};

}  // namespace nearpm

#endif  // SRC_NDP_DEVICE_H_
