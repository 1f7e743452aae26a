// Deterministic crash-state exploration engine (the correctness-tooling
// analogue of a sanitizer pass).
//
// The engine drives a fixed-layout bank workload -- account transfers plus
// page-sized blob fills, so operations span both interleaved devices and
// exercise large in-flight NDP copies -- through a PersistentHeap, fails the
// power at a chosen crash point, recovers, and checks the recovered heap
// against a pure reference model:
//
//  * recovery must succeed;
//  * the recovered state must equal the reference state after some prefix
//    of the committed operations (crash consistency: atomicity + ordering;
//    a fully-applied *uncommitted* operation is the Section 2.3 lost-log
//    symptom and is flagged separately);
//  * operations after recovery must behave exactly like the model;
//  * with PPO enforced, the recorded trace must satisfy the Section 4
//    invariants (PpoChecker).
//
// A crash point is fully deterministic -- (op-stream seed, crash step,
// mid-op flag, failure instant, pending-line survival mask) -- so every
// failure replays bit-for-bit and shrinks to a minimal corpus repro.
// Systematic mode enumerates the failure instants after every
// persist-relevant trace event (EnumerateCrashPoints); sweep mode samples
// schedules from a 64-bit seed. Both are case generators for the engine's
// one sweep loop (engine.h); the repro keys of a bank case are declared in
// BankRepro.
#ifndef SRC_FUZZ_CRASH_FUZZER_H_
#define SRC_FUZZ_CRASH_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/repro.h"
#include "src/pmlib/provider.h"

namespace nearpm {
namespace fuzz {

struct FuzzConfig : ScenarioConfig {
  Mechanism mechanism = Mechanism::kLogging;
};

// One fully deterministic crash schedule (see file comment).
struct FuzzCase {
  std::uint64_t seed = 1;
  std::uint64_t total_ops = 6;
  std::uint64_t crash_step = 0;
  bool mid_op = false;
  std::uint64_t crash_time = 0;  // absolute instant; 0 = "right now"
  std::vector<bool> line_survival;
};

// Where recovery landed: the committed-op count at the crash and the
// committed prefix the recovered state equals (0 is also the pristine pool
// a checkpointing recovery may roll back to).
struct RecoveredPrefix {
  std::uint64_t committed = 0;
  std::uint64_t matched = 0;
};

// Prefix probe: candidate failure instants and the pending-line count at
// the crash point (the survival-mask length).
struct ProbeResult {
  std::vector<std::uint64_t> candidates;
  std::uint64_t pending_lines = 0;
};

class CrashFuzzer {
 public:
  explicit CrashFuzzer(const FuzzConfig& config) : config_(config) {}

  const FuzzConfig& config() const { return config_; }

  // Executes the case's prefix without failing, and reports the crash-point
  // candidates reachable from it.
  ProbeResult Probe(const FuzzCase& c) const;

  // Executes the case end to end (prefix, crash, recovery, oracles). When
  // recovery reaches a committed prefix, `recovered` (if non-null) gets it.
  CaseResult Run(const FuzzCase& c,
                 RecoveredPrefix* recovered = nullptr) const;

  // Exhaustive sweep of one schedule: every crash step, committed and
  // mid-op, every enumerated failure instant (capped at `max_candidates`
  // per point, evenly subsampled), under the all-drop and all-survive
  // masks.
  std::vector<FuzzCase> SystematicCases(std::uint64_t seed, std::uint64_t ops,
                                        std::size_t max_candidates) const;
  SweepStats Systematic(std::uint64_t seed, std::uint64_t ops,
                        std::size_t max_candidates,
                        std::vector<Failure<FuzzCase>>* failures) const;

  // Randomized deep sweep: `cases_per_seed` schedules per seed in
  // [first_seed, first_seed + num_seeds), with random crash instants and
  // survival masks. Fully reproducible: case `i` of seed `s` is
  // BuildSweepCase(s, i).
  SweepStats RandomSweep(std::uint64_t first_seed, std::uint64_t num_seeds,
                         int cases_per_seed,
                         std::vector<Failure<FuzzCase>>* failures) const;

  // The deterministic derivation RandomSweep uses (exposed for --replay).
  FuzzCase BuildSweepCase(std::uint64_t seed, std::uint64_t case_index) const;

  // Shrinks a failing case to the earliest failing crash step, the earliest
  // failing candidate instant and a minimal survival mask, preserving the
  // failure class. Returns the (now minimal) case; `result` receives its
  // verdict.
  FuzzCase Shrink(const FuzzCase& failing, CaseResult* result) const;

  CrashRepro ToRepro(const FuzzCase& c, const std::string& expect,
                     const std::string& note) const;

 private:
  struct Env;

  // Runs mint + the schedule prefix of `c` inside a fresh simulated
  // machine. Returns false (with result filled) on harness errors.
  bool ExecutePrefix(const FuzzCase& c, Env* env, CaseResult* result) const;
  CaseResult RunOracles(const FuzzCase& c, Env* env,
                        RecoveredPrefix* recovered) const;

  FuzzConfig config_;
};

// The bank half of a repro: the schedule keys (total_ops, crash_step,
// mid_op, crash_time, line_survival); mechanism, mode, enforce_ppo,
// break_recovery and seed come from the header.
class BankRepro final : public ScenarioRepro {
 public:
  static constexpr const char* kKind = "bank";

  BankRepro() = default;
  BankRepro(const FuzzConfig& cfg, const FuzzCase& c)
      : config(cfg), fuzz_case(c) {}

  void Fields(std::vector<JsonField>* fields) override;
  Status Bind(const ReproHeader& header) override;
  CaseResult Run(analyze::PmSanitizer* sanitizer) const override;
  std::string FileName() const override;

  FuzzConfig config;
  FuzzCase fuzz_case;
};

}  // namespace fuzz
}  // namespace nearpm

#endif  // SRC_FUZZ_CRASH_FUZZER_H_
