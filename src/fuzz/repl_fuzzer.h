// Crash-state fuzzing for the replicated serving tier: the multi-node
// scenario of the crash-fuzz engine (engine.h).
//
// Every case is fully deterministic: a seeded warmup (puts committed through
// the replicated commit, so they are acked and durable on every replica),
// one replicated transaction abandoned at a chosen ReplStopPhase, then a
// power failure on an arbitrary *subset* of nodes (the crash mask -- the
// sweep enumerates every non-empty subset) with a uniform pending-line
// survival mask, failover for groups whose routed primary died, and
// RecoverAll().
//
// Oracles:
//  * a promoted backup must serve every acked key exactly (kFailoverError);
//  * recovery must succeed on every node (kRecoverError);
//  * acked warmup data must survive bit-for-bit on EVERY replica of its
//    owning group (kLostCommitted);
//  * the crashed transaction must be all-or-nothing -- and since every stop
//    phase lies after the coordinator intent became durable, recovery's
//    union reconciliation must land the whole transaction on every replica
//    (kTornTxn; catches break_intent_redo);
//  * after recovery all replicas of a group must hold bit-identical tables
//    (kDivergentReplica);
//  * replaying every node's trace through the PM-Sanitizer must report no
//    NPM007 doorbell-before-persist hazard (kDoorbellHazard; catches
//    skip_redo_persist, where the one-sided ack races the record);
//  * the recorded traces must satisfy the Section 4 PPO invariants
//    (kPpoViolation);
//  * the recovered cluster must serve fresh replicated transactions exactly
//    (kPostRecoveryMismatch).
#ifndef SRC_FUZZ_REPL_FUZZER_H_
#define SRC_FUZZ_REPL_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/repro.h"
#include "src/fuzz/service_scenario.h"
#include "src/repl/service.h"

namespace nearpm {
namespace fuzz {

struct ReplFuzzConfig : ScenarioConfig {
  int groups = 2;
  int replicas = 2;
  repl::ReplProtocol protocol = repl::ReplProtocol::kPrimaryBackup;
  bool break_intent_redo = false;  // ablation: intents scrubbed, not redone
  bool skip_redo_persist = false;  // ablation: one-sided ack races record
};

// One deterministic crash schedule; the stop phase pins where inside the
// replicated protocol the power fails and the crash mask pins which nodes
// fail (bit n = node n).
struct ReplFuzzCase : ServiceCase {
  repl::ReplStopPhase phase = repl::ReplStopPhase::kNone;
  int ordinal = 0;  // backup index (kMidReplicate) / participant ordinal
  std::uint64_t crash_mask = ~0ull;  // clipped to the node count; != 0
};

class ReplFuzzer {
 public:
  explicit ReplFuzzer(const ReplFuzzConfig& config) : config_(config) {}

  const ReplFuzzConfig& config() const { return config_; }

  // Executes the case end to end (warmup, txn, crash, failover, recovery,
  // oracles).
  CaseResult Run(const ReplFuzzCase& c) const;

  // Participant group count of the transaction the case derives (the
  // ordinal range the *Apply stop phases can target).
  int ParticipantCount(const ReplFuzzCase& c) const;

  // Exhaustive sweep of one schedule: every stop phase, every ordinal the
  // phase can target, every non-empty node subset as the crash mask, under
  // the all-drop and all-survive masks.
  std::vector<ReplFuzzCase> SystematicCases(std::uint64_t seed) const;
  SweepStats Systematic(std::uint64_t seed,
                        std::vector<Failure<ReplFuzzCase>>* failures) const;

  CrashRepro ToRepro(const ReplFuzzCase& c, const std::string& expect,
                     const std::string& note) const;

 private:
  struct PrefixEnv;

  // Warmup + the stopped transaction inside a fresh cluster; harness errors
  // surface as a non-ok Status.
  Status ExecutePrefix(const ReplFuzzCase& c, PrefixEnv* env) const;

  ReplFuzzConfig config_;
};

// The repl half of a repro: repl_groups, repl_replicas, repl_protocol,
// repl_phase, repl_ordinal, repl_crash_mask, repl_survive and the two
// repl ablations, plus the keys every service repro carries
// (service_scenario.h).
class ReplRepro final : public ScenarioRepro {
 public:
  static constexpr const char* kKind = "repl";

  ReplRepro() = default;
  ReplRepro(const ReplFuzzConfig& cfg, const ReplFuzzCase& c)
      : config(cfg), fuzz_case(c) {}

  void Fields(std::vector<JsonField>* fields) override;
  Status Bind(const ReproHeader& header) override;
  CaseResult Run(analyze::PmSanitizer* sanitizer) const override;
  std::string FileName() const override;
  std::optional<RequiredFinding> RequiredRule() const override;

  ReplFuzzConfig config;
  ReplFuzzCase fuzz_case;
  InertBankKeys inert;
};

}  // namespace fuzz
}  // namespace nearpm

#endif  // SRC_FUZZ_REPL_FUZZER_H_
