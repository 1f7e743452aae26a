// Trace-driven checker for the Partitioned Persist Ordering invariants
// (Section 4 of the paper), closing the loop DESIGN.md section 4 promises:
// the invariants are asserted against the *observed* memory-event trace, not
// just against end states.
//
// The checker replays a recorded event stream (TraceRecorder::Snapshot) and
// verifies, per trace epoch (virtual clocks restart at a crash):
//
//  * Invariant 1 -- a CPU load of an address an in-flight NDP request is
//    writing happens-after that request completes: no kCpuRead instant may
//    fall inside the execution window of an earlier-issued, overlapping
//    kUnitExec/kDeferredExec span.
//  * Invariant 2 -- a CPU persist that overlaps an in-flight request's read
//    or write set orders that request before itself: the request must carry
//    a kRetire (acceptance into the persistence-domain host queue orders the
//    write-back behind it) recorded before the persist.
//  * Invariant 3 -- commits follow synchronization: in a multi-device epoch,
//    maintenance-path work (deferred log deletion, the only kDeferredExec
//    producer) may only begin executing after every earlier-issued unit
//    request -- on every device -- has completed. Deleting recovery data
//    while the work it covers is still in flight is exactly the Section 2.3
//    inconsistency, which this check flags when enforce_ppo=false.
//  * Invariant 4 -- recovery replays exactly the in-flight window: every
//    kRecoveryReplay follows a kCrash, names a request issued before the
//    crash, never a request whose effects were already durable everywhere,
//    and never replays the same request twice. Nothing in the simulator
//    records kRecoveryReplay (its hardware recovery is PmSpace's
//    sync-frontier repair, applied to the crash image), so this rule only
//    judges traces recorded elsewhere and read back (ReadRawTraceFile).
//
// "Issued before" always means the recorder's global order field (real
// program order), never timestamp comparison -- per-thread virtual clocks
// are mutually skewed by design.
//
// Cost. Each invariant is checked by a scan over the epoch's earlier exec
// spans in issue order, and that scan is the only code that reports. Before
// it runs, an exact existence index answers the scan's own predicate --
// would any span make this event a violation? -- and the scan runs only on
// a hit. The index is kept on address, not time (worker clocks drift far
// apart, so a time window would prune little):
//
//  * I1: per distinct span write range, the latest end of its spans;
//  * I2: per distinct write or read range, the ends of the unretired spans
//    touching it. A kRetire removes its key's spans, and a span whose key
//    already retired never enters, matching the scan's retire lookup;
//  * I3: the latest kUnitExec end;
//  * I4: each seq's earliest span order.
//
// Ranges are ordered by begin, so a read or persist visits only the ranges
// that begin between one longest-indexed-range length before it and its
// end. The index is neither looser nor tighter than the scan, so every hit
// adds a violation (disabled invariants skip their query): at most
// max_violations scans run, and a check costs O(E (log R + k) +
// max_violations * S) instead of O(E * S), for E events, R distinct
// ranges, k ranges visited per query and S spans. Violations, their order
// and their text are the scan's by construction.
#ifndef SRC_TRACE_PPO_CHECKER_H_
#define SRC_TRACE_PPO_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/recorder.h"
#include "src/trace/trace_event.h"

namespace nearpm {

struct PpoViolation {
  int invariant = 0;        // 1..4; 0 = insufficient history (trimmed ring)
  std::uint64_t seq = 0;    // offending request seq (0 when not applicable)
  std::uint32_t epoch = 0;
  SimTime ts = 0;           // virtual time of the violating event
  std::string detail;
};

class PpoChecker {
 public:
  // Stops collecting after this many violations (the ablation produces one
  // per unordered access; a handful is plenty to diagnose).
  std::size_t max_violations = 64;

  // When true, a snapshot whose prefix was trimmed by ring wrap-around (the
  // first surviving event's global order is not 1) yields an invariant-0
  // "insufficient history" violation instead of silently checking only the
  // tail: a load or persist may race work whose exec span was trimmed away.
  // Off by default -- long-running audits (nearpm_load) intentionally check
  // trimmed tails -- but conformance runs must demand the full trace.
  bool require_full_history = false;

  // Bitmask of invariants (bit i-1 = invariant i) to *skip*. Exists solely
  // for the conformance harness's teeth mode: a deliberately weakened
  // checker must be caught by the differential spec comparison.
  std::uint32_t disable_invariants = 0;

  std::vector<PpoViolation> Check(const std::vector<TraceEvent>& events) const;
  std::vector<PpoViolation> Check(const TraceRecorder& recorder) const {
    return Check(recorder.Snapshot());
  }

  static std::string Report(const std::vector<PpoViolation>& violations);
};

}  // namespace nearpm

#endif  // SRC_TRACE_PPO_CHECKER_H_
