// Pipelined NearPM unit pool.
//
// Each NearPM unit is modeled as a dispatch -> execute -> writeback pipeline
// with an LSQ-style bound on requests in flight inside the unit
// (dispatched but not yet written back). The stage widths and the bound come
// from hwmodel::HwConfig; the default geometry (zero-width stages, unbounded
// LSQ) collapses each unit back into the seed's single Timeline, and the
// scheduler then reproduces sim::UnitPool decision-for-decision so default
// traces stay byte-identical to the seed.
//
// Pipelined semantics:
//  * a request occupies its unit's dispatch stage for `dispatch_ns`, the
//    execute stage for the request's work time, and the writeback stage for
//    `writeback_ns`, each stage a Timeline of its own (stages of different
//    requests overlap; stages of one request chain);
//  * the unit is chosen by earliest dispatch availability (ties to the
//    lowest index, mirroring UnitPool's policy);
//  * when the LSQ is full, dispatch stalls until the oldest in-flight
//    request completes writeback (`lsq_stalled` reports the stall, and the
//    device folds it into the dispatcher's conflict-stall attribution);
//  * the request's writes remain visible to the in-flight conflict check
//    until writeback ends -- the device inserts wb_end, not exec_end, into
//    its InflightTable, so overlapping PM ranges stall behind the full
//    pipeline residency.
#ifndef SRC_NDP_PIPELINE_H_
#define SRC_NDP_PIPELINE_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "src/hwmodel/hw_config.h"
#include "src/sim/timeline.h"

namespace nearpm {

// Where one request sat in its unit's pipeline. With the pipeline disabled
// the three stages degenerate: dispatch and writeback are empty
// (dispatch_end == dispatch_start == exec_start, wb_start == wb_end ==
// exec_end) and the schedule is exactly what sim::UnitPool would have
// produced.
struct PipelineSchedule {
  int unit = 0;
  SimTime dispatch_start = 0;
  SimTime dispatch_end = 0;
  SimTime exec_start = 0;
  SimTime exec_end = 0;
  SimTime wb_start = 0;
  SimTime wb_end = 0;
  // Dispatch waited for the oldest in-flight request to drain (LSQ full).
  bool lsq_stalled = false;
  // In-flight population of the unit right after this dispatch.
  std::size_t lsq_occupancy = 0;
};

class UnitPipeline {
 public:
  // `hw` must outlive the pipeline (the owning device holds the config).
  explicit UnitPipeline(const hwmodel::HwConfig* hw);

  // Schedules `work_ns` of execute-stage work starting no earlier than
  // `earliest`, on the unit that can dispatch it first.
  PipelineSchedule Schedule(SimTime earliest, double work_ns);

  // Completion (writeback end) of all work scheduled so far.
  SimTime AllIdleAt() const;

  bool pipelined() const { return pipelined_; }
  void Reset();

 private:
  struct Unit {
    Timeline dispatch;
    Timeline exec;
    Timeline writeback;
    // Writeback-end times of requests in flight (dispatched, not yet
    // written back), oldest first; bounded by lsq_depth when > 0.
    std::deque<SimTime> lsq;
  };

  const hwmodel::HwConfig* hw_;
  bool pipelined_;
  std::vector<Unit> units_;
};

}  // namespace nearpm

#endif  // SRC_NDP_PIPELINE_H_
