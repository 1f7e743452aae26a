// Crash-state fuzzing for the sharded serving layer: the cross-shard
// scenario of the crash-fuzz engine (engine.h).
//
// Every case is fully deterministic: a seeded warmup (committed and drained
// single-shard puts through the queue/batch path), a committed-but-undrained
// tail (puts whose device requests are still in flight at the failure, so
// hardware recovery's frontier repair has real work to do), then one
// cross-shard MultiPut abandoned at a chosen TxnStopPhase, a power failure
// on every shard with a uniform pending-line survival mask, and
// RecoverAll().
//
// Oracles:
//  * recovery must succeed on every shard;
//  * drained warmup data must survive bit-for-bit (kLostCommitted);
//  * every undrained tail key must be atomic -- absent or exactly its new
//    value, never torn (kTornWrite);
//  * a deliberately uncommitted put left open at the failure (undo log
//    durable, CommitOp never issued) must be rolled back
//    (kUncommittedDurable; this is what catches the break_recovery
//    ablation, which scrubs the log without applying it);
//  * the crashed MultiPut must be all-or-nothing across shards, and since
//    every stop phase lies after the intent became durable, recovery's
//    intent redo must make it all-or-ALL (kTornTxn; catches break_txn_redo);
//  * the recorded traces must satisfy the Section 4 PPO invariants
//    (kPpoViolation; catches the enforce_ppo ablation);
//  * the recovered service must serve fresh puts, gets and MultiPuts
//    exactly (kPostRecoveryMismatch).
#ifndef SRC_FUZZ_SERVE_FUZZER_H_
#define SRC_FUZZ_SERVE_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/repro.h"
#include "src/fuzz/service_scenario.h"
#include "src/serve/service.h"

namespace nearpm {
namespace fuzz {

struct ServeFuzzConfig : ScenarioConfig {
  int shards = 3;
  bool break_txn_redo = false;  // ablation: intents scrubbed, not redone
};

// One deterministic crash schedule; the stop phase pins where inside the
// cross-shard protocol the power fails.
struct ServeFuzzCase : ServiceCase {
  serve::TxnStopPhase phase = serve::TxnStopPhase::kNone;
  int apply_ordinal = 0;  // participant ordinal for the *Apply phases
};

class ServeFuzzer {
 public:
  explicit ServeFuzzer(const ServeFuzzConfig& config) : config_(config) {}

  const ServeFuzzConfig& config() const { return config_; }

  // Executes the case end to end (warmup, tail, txn, crash, recovery,
  // oracles).
  CaseResult Run(const ServeFuzzCase& c) const;

  // Executes the case's prefix without failing and enumerates the candidate
  // failure offsets reachable from its stop point (union over every shard
  // of that shard's candidate instants relative to its own clock).
  StatusOr<std::vector<SimTime>> Probe(const ServeFuzzCase& c) const;

  // Participant shard count of the MultiPut the case derives (the ordinal
  // range the *Apply stop phases can target).
  int ParticipantCount(const ServeFuzzCase& c) const;

  // Exhaustive sweep of one schedule: every stop phase, every participant
  // ordinal for the *Apply phases, crashing "right now" plus at up to
  // `max_candidates` enumerated in-flight offsets, under the all-drop and
  // all-survive masks.
  std::vector<ServeFuzzCase> SystematicCases(std::uint64_t seed,
                                             std::size_t max_candidates) const;
  SweepStats Systematic(std::uint64_t seed, std::size_t max_candidates,
                        std::vector<Failure<ServeFuzzCase>>* failures) const;

  CrashRepro ToRepro(const ServeFuzzCase& c, const std::string& expect,
                     const std::string& note) const;

 private:
  struct PrefixEnv;

  // Warmup + tail + the stopped MultiPut inside a fresh service; harness
  // errors surface as a non-ok Status.
  Status ExecutePrefix(const ServeFuzzCase& c, PrefixEnv* env) const;

  ServeFuzzConfig config_;
};

// The serve half of a repro: serve_shards, serve_phase,
// serve_apply_ordinal, serve_survive and serve_break_txn_redo, plus the
// keys every service repro carries (service_scenario.h).
class ServeRepro final : public ScenarioRepro {
 public:
  static constexpr const char* kKind = "serve";

  ServeRepro() = default;
  ServeRepro(const ServeFuzzConfig& cfg, const ServeFuzzCase& c)
      : config(cfg), fuzz_case(c) {}

  void Fields(std::vector<JsonField>* fields) override;
  Status Bind(const ReproHeader& header) override;
  CaseResult Run(analyze::PmSanitizer* sanitizer) const override;
  std::string FileName() const override;

  ServeFuzzConfig config;
  ServeFuzzCase fuzz_case;
  InertBankKeys inert;
};

}  // namespace fuzz
}  // namespace nearpm

#endif  // SRC_FUZZ_SERVE_FUZZER_H_
