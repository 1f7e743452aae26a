// What the serve and repl scenarios share: the key and value derivation,
// the stop-phase name tables, crash-plan construction, the per-node trace
// snapshot, and the repro keys of the schedule. Each scenario keeps its own
// workload, crash points and oracles (serve_fuzzer.h, repl_fuzzer.h).
#ifndef SRC_FUZZ_SERVICE_SCENARIO_H_
#define SRC_FUZZ_SERVICE_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/repro.h"
#include "src/repl/service.h"
#include "src/serve/service.h"

namespace nearpm {
namespace fuzz {

// Fixed service shape: every committed repro was recorded with it.
inline constexpr std::uint32_t kServiceTableSlots = 64;
inline constexpr std::uint32_t kServiceValueSize = 32;

// The schedule every service case carries. Keys and values derive from the
// seed.
struct ServiceCase {
  std::uint64_t seed = 1;
  std::uint64_t warmup_ops = 6;  // committed puts before the transaction
  std::uint64_t txn_pairs = 4;   // pairs in the crashed transaction
  // Failure instant as an offset from each crashed node's own clock at the
  // stop point (0 = "right now"). Node timelines are independent, so an
  // offset lands the failure inside every node's in-flight window at once.
  std::uint64_t crash_offset = 0;
  bool lines_survive = false;  // uniform survival for every pending CPU line
};

// The keys of the case's transaction, in [10000, 11000); warmup keys lie in
// [1000, 2000), so the oracles never alias.
std::vector<std::uint64_t> TxnKeys(const ServiceCase& c);

// Deterministic value payload: generation distinguishes warmup (0), the
// crashed transaction (1) and post-recovery traffic (2).
std::vector<std::uint8_t> MakeValue(std::uint64_t seed, std::uint64_t key,
                                    std::uint64_t generation);

// The case's transaction pairs at `generation`: 1 is the crashed
// transaction, 2 the post-recovery one.
std::vector<serve::KvPair> TxnPairs(const ServiceCase& c,
                                    std::uint64_t generation);

// A transaction run under a stop phase must stop (Unavailable); one run
// without must succeed. Anything else is a harness error.
Status CheckStop(bool stop_requested, const Status& txn_status);

// Queues one put through the admission path (the caller pumps).
Status SubmitPut(serve::FrontEnd& svc, std::uint64_t key,
                 std::vector<std::uint8_t> value);

// Queues the case's warmup puts (generation 0) and returns the final
// expected value of each warmup key, later puts overwriting earlier ones.
using KeyValues =
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>;
StatusOr<KeyValues> SubmitWarmup(serve::FrontEnd& svc, const ServiceCase& c);

// Stop-phase names (the serve_phase / repl_phase repro keys), listed in the
// order the systematic sweeps visit them.
const NameTable<serve::TxnStopPhase>& TxnStopPhaseNames();
const NameTable<repl::ReplStopPhase>& ReplStopPhaseNames();

// The nodes of a `nodes`-node service that `mask` selects (bit n = node n).
std::vector<int> MaskedNodes(int nodes, std::uint64_t mask);

// One crash plan per node in `crashed`, for CrashAll / CrashReplicas: the
// failure instant offset into that node's own timeline, and a uniform
// pending-line survival mask.
std::vector<CrashPlan> CrashPlans(serve::FrontEnd& svc,
                                  const std::vector<int>& crashed,
                                  const ServiceCase& c);

// Replays every node's trace snapshot through `sanitizer` (one node is one
// address space, so each replays alone; findings accumulate in its sink).
// Does nothing without a sanitizer.
void AnalyzeSnapshots(serve::FrontEnd& svc, analyze::PmSanitizer* sanitizer);

// Oracle: the Section 4 PPO invariants hold on every node's trace.
CaseResult PpoOracle(serve::FrontEnd& svc);

// Oracle: the recovered service still serves. `commit` runs the case's
// post-recovery transaction (its `what` names it in failures), and `read`
// must then return every new value.
using CommitFn = std::function<Status(const std::vector<serve::KvPair>&)>;
using ReadFn =
    std::function<StatusOr<std::vector<std::uint8_t>>(std::uint64_t key)>;
CaseResult PostRecoveryOracle(const ServiceCase& c, const char* what,
                              const CommitFn& commit, const ReadFn& read);

// The bank schedule keys a service repro carries but never reads: they must
// hold these values so every file rewrites byte-identical.
struct InertBankKeys {
  std::uint64_t total_ops = 1;
  std::uint64_t crash_step = 0;
  bool mid_op = false;
  std::string line_survival;
};

// Declares the keys every service repro carries: crash_time (the crash
// offset), serve_warmup_ops, serve_txn_pairs and the inert bank keys.
void ServiceFields(ServiceCase* c, InertBankKeys* inert,
                   std::vector<JsonField>* fields);

// Completes `config` and `c` from a freshly read header and checks what
// every service repro must hold.
Status BindService(const ReproHeader& header, const InertBankKeys& inert,
                   ScenarioConfig* config, ServiceCase* c);

}  // namespace fuzz
}  // namespace nearpm

#endif  // SRC_FUZZ_SERVICE_SCENARIO_H_
