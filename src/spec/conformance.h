// Differential conformance between the executable PPO spec (src/spec/model)
// and the real machine (src/core runtime + src/trace checker + src/analyze
// sanitizer). For every prefix of a litmus program the harness runs three
// independent oracles against each other:
//
//  * crash-state membership -- the machine's persisted image after
//    PmSpace::Crash at every trace-derived candidate instant (times a
//    pending-line survival mask) must be one of the spec's allowed states;
//  * checker differential -- PpoChecker violations on the probe trace must
//    match the spec's structural race predictions, with an *independent
//    trace witness* (a from-scratch re-implementation of the invariant
//    semantics) arbitrating "predicted but not observed" so that a race the
//    timing never exhibited is not charged to the checker;
//  * sanitizer differential -- PM-Sanitizer rule counts must match the
//    spec's NPM predictions rule by rule.
//
// Crash candidates are restricted to t >= the latest CPU instant of the
// prefix (CrashCursorOptions::min_time): the host barrier only retires
// *in-flight* requests (InflightTable::Conflicts skips completed entries),
// so the spec's barrier-retire rule over-forces durability for crash times
// in the CPU's past. Earlier instants are still covered -- by the shorter
// prefixes of the same program, whose own "now" is earlier.
//
// Disagreements shrink (greedy, deterministic instruction removal) into
// flat-JSON litmus repros replayable by `nearpm_litmus replay`, giving the
// suite teeth: a mutated spec or a deliberately weakened checker must
// produce disagreements, or the harness could not detect a divergence.
#ifndef SRC_SPEC_CONFORMANCE_H_
#define SRC_SPEC_CONFORMANCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/spec/litmus.h"
#include "src/spec/model.h"

namespace nearpm {
namespace spec {

enum class DisagreementKind : std::uint8_t {
  // The machine persisted a state outside the spec's allowed set.
  kStateNotAllowed,
  // PpoChecker flagged a violation the spec says cannot happen.
  kCheckerFalseAlarm,
  // The spec predicts a race, the trace witnesses it, the checker is silent.
  kCheckerMissed,
  // PM-Sanitizer reported a rule the spec says the program cannot trigger.
  kSanitizerFalseAlarm,
  // The spec predicts (and the trace witnesses) a finding; sanitizer silent.
  kSanitizerMissed,
};

const NameTable<DisagreementKind>& DisagreementKindNames();
const char* DisagreementKindName(DisagreementKind kind);

struct ConformanceConfig {
  // Probe-runtime enforce_ppo leg (spec and machine must agree per leg).
  bool enforce = true;
  // Teeth: run against a deliberately broken spec.
  SpecMutation mutation = SpecMutation::kNone;
  // Teeth: PpoChecker::disable_invariants bitmask (bit i-1 = invariant i).
  // Only bits 1..3 have teeth on a healthy machine: probe runs without a
  // crash never emit kRecoveryReplay, so a disabled invariant 4 is
  // indistinguishable from a healthy one.
  std::uint32_t weaken_checker = 0;
  // Crash-sweep budget per prefix: candidate instants (excess is counted in
  // stats, never silently dropped) and pending-line survival masks.
  std::size_t max_crash_candidates = 64;
  std::size_t max_masks = 6;
  // Also run the InjectCrashAt recovery leg (journal replay) and require
  // the checker to accept it (invariant 4 / full-history invariant 0).
  bool check_recovery = true;
};

struct Disagreement {
  DisagreementKind kind = DisagreementKind::kStateNotAllowed;
  std::string program_name;
  std::string program_text;
  std::size_t prefix_len = 0;
  std::string detail;
};

struct ConformanceStats {
  std::uint64_t programs = 0;
  std::uint64_t prefixes = 0;
  std::uint64_t crash_states_checked = 0;
  std::uint64_t crash_candidates_truncated = 0;
  std::uint64_t recovery_runs = 0;
  std::uint64_t checker_violations = 0;
  std::uint64_t sanitizer_findings = 0;
};

// Checks every prefix of `program` under `config`. Returns all
// disagreements found (empty = machine and spec agree). `stats` is
// accumulated into when non-null.
std::vector<Disagreement> CheckProgram(const LitmusProgram& program,
                                       const ConformanceConfig& config,
                                       ConformanceStats* stats);

// Runs both enforce_ppo legs (config.enforce is overridden per leg).
std::vector<Disagreement> CheckProgramBothLegs(const LitmusProgram& program,
                                               const ConformanceConfig& config,
                                               ConformanceStats* stats);

// Greedy deterministic shrink: repeatedly removes single instructions while
// the program still produces a disagreement of `kind` under `config`.
LitmusProgram ShrinkDisagreement(const LitmusProgram& program,
                                 const ConformanceConfig& config,
                                 DisagreementKind kind);

// One shrunk disagreement as a flat-JSON corpus artifact (schema
// "litmus-repro-v1", written in the same canonical flat form as the fuzz
// repros and read through the same strict reader, src/common/json.h).
struct LitmusRepro {
  std::string name;
  std::string text;  // litmus grammar, one line
  bool enforce = true;
  SpecMutation mutation = SpecMutation::kNone;
  std::uint32_t weaken_checker = 0;
  DisagreementKind kind = DisagreementKind::kStateNotAllowed;
  std::string detail;

  std::string Write() const;
  static StatusOr<LitmusRepro> Parse(std::string_view text);
  // <name>-<kind>.json, with the name reduced to [A-Za-z0-9_-].
  std::string FileName() const;
};

// Corpus file I/O: load one repro (errors name the path), or save one under
// `dir` (created when missing) and return its path.
StatusOr<LitmusRepro> LoadLitmusRepro(const std::string& path);
StatusOr<std::string> SaveLitmusRepro(const LitmusRepro& repro,
                                      const std::string& dir);

LitmusRepro MakeRepro(const LitmusProgram& program,
                      const ConformanceConfig& config,
                      const Disagreement& disagreement);

// Replays a repro: the recorded configuration must reproduce a disagreement
// of the recorded kind, and (when the recorded configuration is not already
// healthy) the healthy configuration must stay clean on the same program.
Status ReplayLitmusRepro(const LitmusRepro& repro);

}  // namespace spec
}  // namespace nearpm

#endif  // SRC_SPEC_CONFORMANCE_H_
