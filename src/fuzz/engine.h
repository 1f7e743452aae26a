// The crash-fuzz engine: the verdict types, the configuration every scenario
// shares, and the one sweep loop.
//
// Three scenarios run on it. The bank ledger crashes one simulated machine
// (crash_fuzzer.h). The sharded service crashes a cross-shard MultiPut
// (serve_fuzzer.h). The replicated cluster crashes a replicated transaction
// on any node subset (repl_fuzzer.h). Each scenario keeps only its workload,
// its crash points and its oracles, and hands its cases to Sweep(). The
// repro layer (repro.h) turns a case of any scenario into a corpus file and
// replays the file through the scenario its "kind" names.
#ifndef SRC_FUZZ_ENGINE_H_
#define SRC_FUZZ_ENGINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/options.h"

namespace nearpm {

namespace analyze {
class PmSanitizer;
}  // namespace analyze

namespace fuzz {

// Every scenario's oracle verdicts, each printed by FailureKindName.
enum class FailureKind : std::uint8_t {
  kNone = 0,
  kHarness,               // the schedule itself could not be executed
  kRecoverError,          // recovery returned an error
  kStateMismatch,         // bank: recovered state matches no committed prefix
  kUncommittedDurable,    // an uncommitted op survived recovery (§2.3)
  kPostRecoveryMismatch,  // the recovered system misbehaves afterwards
  kPpoViolation,          // a trace violates a Section 4 invariant
  kLostCommitted,         // serve/repl: drained or acked data missing or wrong
  kTornWrite,             // serve: an undrained tail put recovered half-applied
  kTornTxn,               // serve/repl: a transaction recovered partially
  kFailoverError,         // repl: promotion failed or a promoted backup erred
  kDivergentReplica,      // repl: replicas of one group disagree bit-for-bit
  kDoorbellHazard,        // repl: NPM007, a doorbell raced its redo record
};

const char* FailureKindName(FailureKind kind);

struct CaseResult {
  FailureKind failure = FailureKind::kNone;
  std::string detail;

  bool ok() const { return failure == FailureKind::kNone; }
};

CaseResult Fail(FailureKind kind, std::string detail);

struct SweepStats {
  std::uint64_t cases = 0;
  std::uint64_t failures = 0;
};

template <typename Case>
struct Failure {
  Case fuzz_case;
  CaseResult result;
};

// What every scenario's configuration carries.
struct ScenarioConfig {
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  bool enforce_ppo = true;
  // Fault injection: the deliberately broken hardware recovery
  // (RuntimeOptions::skip_recovery_replay). The fuzzer must catch this.
  bool break_recovery = false;
  // Optional PM-Sanitizer that sees every run. The bank scenario attaches it
  // to its machine live; serve and repl replay each node's trace snapshot
  // through it right after the crash (one node is one address space).
  analyze::PmSanitizer* sanitizer = nullptr;
};

// The one sweep loop: runs every case in order, counts, and appends the
// failing ones to `failures` when it is non-null.
template <typename Case, typename RunFn>
SweepStats Sweep(const std::vector<Case>& cases, const RunFn& run,
                 std::vector<Failure<Case>>* failures) {
  SweepStats stats;
  for (const Case& c : cases) {
    CaseResult result = run(c);
    ++stats.cases;
    if (!result.ok()) {
      ++stats.failures;
      if (failures != nullptr) {
        failures->push_back(Failure<Case>{c, std::move(result)});
      }
    }
  }
  return stats;
}

}  // namespace fuzz
}  // namespace nearpm

#endif  // SRC_FUZZ_ENGINE_H_
