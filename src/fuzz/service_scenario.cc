#include "src/fuzz/service_scenario.h"

#include <algorithm>
#include <mutex>

#include "src/analyze/sanitizer.h"
#include "src/analyze/trace_analyzer.h"
#include "src/serve/router.h"

namespace nearpm {
namespace fuzz {

using serve::ShardRouter;

namespace {

// Warmup puts all queue before one Pump, so the queue is sized by them.
constexpr std::uint64_t kMaxWarmupOps = 4096;

// Key ranges are disjoint by construction so the oracles never alias:
// warmup in [1000, 2000), txn in [10000, 11000).
std::uint64_t WarmupKey(std::uint64_t seed, std::uint64_t i) {
  return 1000 +
         ShardRouter::Mix(seed ^ (0x9E3779B97F4A7C15ull * (i + 1))) % 997;
}

std::uint64_t TxnKey(std::uint64_t seed, std::uint64_t j) {
  return 10000 + j * 97 + ShardRouter::Mix(seed) % 89;
}

}  // namespace

std::vector<std::uint64_t> TxnKeys(const ServiceCase& c) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t j = 0; j < c.txn_pairs; ++j) {
    keys.push_back(TxnKey(c.seed, j));
  }
  return keys;
}

std::vector<std::uint8_t> MakeValue(std::uint64_t seed, std::uint64_t key,
                                    std::uint64_t generation) {
  const std::uint64_t base =
      ShardRouter::Mix(seed ^ (key * 3 + 1) ^ (generation << 56));
  std::vector<std::uint8_t> value(kServiceValueSize);
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<std::uint8_t>((base >> ((i % 8) * 8)) ^ i);
  }
  return value;
}

std::vector<serve::KvPair> TxnPairs(const ServiceCase& c,
                                    std::uint64_t generation) {
  std::vector<serve::KvPair> pairs;
  for (const std::uint64_t key : TxnKeys(c)) {
    serve::KvPair pair;
    pair.key = key;
    pair.value = MakeValue(c.seed, key, generation);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

Status CheckStop(bool stop_requested, const Status& txn_status) {
  if (!stop_requested) {
    if (!txn_status.ok()) {
      return Internal("txn failed: " + txn_status.ToString());
    }
  } else if (txn_status.code() != StatusCode::kUnavailable) {
    return Internal("stop did not fire: " + txn_status.ToString());
  }
  return Status::Ok();
}

Status SubmitPut(serve::FrontEnd& svc, std::uint64_t key,
                 std::vector<std::uint8_t> value) {
  serve::ServeRequest req;
  req.kind = serve::RequestKind::kPut;
  req.key = key;
  req.value = std::move(value);
  return svc.Submit(std::move(req)).status();
}

StatusOr<KeyValues> SubmitWarmup(serve::FrontEnd& svc, const ServiceCase& c) {
  KeyValues warmup;
  for (std::uint64_t i = 0; i < c.warmup_ops; ++i) {
    const std::uint64_t key = WarmupKey(c.seed, i);
    NEARPM_RETURN_IF_ERROR(SubmitPut(svc, key, MakeValue(c.seed, key, 0)));
    const auto seen =
        std::find_if(warmup.begin(), warmup.end(),
                     [key](const auto& kv) { return kv.first == key; });
    if (seen == warmup.end()) {
      warmup.emplace_back(key, MakeValue(c.seed, key, 0));
    }
  }
  return warmup;
}

const NameTable<serve::TxnStopPhase>& TxnStopPhaseNames() {
  using serve::TxnStopPhase;
  static const NameTable<TxnStopPhase> table{
      {TxnStopPhase::kNone, "none"},
      {TxnStopPhase::kAfterIntent, "after_intent"},
      {TxnStopPhase::kMidApply, "mid_apply"},
      {TxnStopPhase::kAfterApply, "after_apply"},
      {TxnStopPhase::kAfterSync, "after_sync"}};
  return table;
}

const NameTable<repl::ReplStopPhase>& ReplStopPhaseNames() {
  using repl::ReplStopPhase;
  static const NameTable<ReplStopPhase> table{
      {ReplStopPhase::kNone, "none"},
      {ReplStopPhase::kAfterIntent, "after_intent"},
      {ReplStopPhase::kMidReplicate, "mid_replicate"},
      {ReplStopPhase::kAfterReplicate, "after_replicate"},
      {ReplStopPhase::kMidApply, "mid_apply"},
      {ReplStopPhase::kAfterApply, "after_apply"},
      {ReplStopPhase::kAfterSync, "after_sync"}};
  return table;
}

std::vector<int> MaskedNodes(int nodes, std::uint64_t mask) {
  std::vector<int> out;
  for (int n = 0; n < nodes && n < 64; ++n) {
    if ((mask & (1ull << n)) != 0) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<CrashPlan> CrashPlans(serve::FrontEnd& svc,
                                  const std::vector<int>& crashed,
                                  const ServiceCase& c) {
  std::vector<CrashPlan> plans;
  for (const int n : crashed) {
    serve::Shard& shard = svc.node(n);
    std::lock_guard lock(shard.mu());
    CrashPlan plan;
    plan.crash_time =
        c.crash_offset == 0
            ? 0  // right now
            : shard.rt().stats().MaxThreadTime() + c.crash_offset;
    plan.line_survival.assign(shard.rt().space().PendingLineAddrs().size(),
                              c.lines_survive);
    plans.push_back(std::move(plan));
  }
  return plans;
}

void AnalyzeSnapshots(serve::FrontEnd& svc, analyze::PmSanitizer* sanitizer) {
  if (sanitizer == nullptr) {
    return;
  }
  for (int n = 0; n < svc.num_nodes(); ++n) {
    serve::Shard& shard = svc.node(n);
    std::lock_guard lock(shard.mu());
    analyze::AnalyzeTrace(shard.recorder().Snapshot(), sanitizer);
  }
}

CaseResult PpoOracle(serve::FrontEnd& svc) {
  std::string report;
  const std::uint64_t violations = svc.PpoViolations(&report);
  if (violations > 0) {
    return Fail(FailureKind::kPpoViolation,
                std::to_string(violations) + " violation(s)\n" + report);
  }
  return CaseResult{};
}

CaseResult PostRecoveryOracle(const ServiceCase& c, const char* what,
                              const CommitFn& commit, const ReadFn& read) {
  const std::vector<serve::KvPair> again = TxnPairs(c, 2);
  const Status committed = commit(again);
  if (!committed.ok()) {
    return Fail(FailureKind::kPostRecoveryMismatch,
                std::string("post-recovery ") + what + ": " +
                    committed.ToString());
  }
  for (const serve::KvPair& pair : again) {
    auto got = read(pair.key);
    if (!got.ok() || *got != pair.value) {
      return Fail(FailureKind::kPostRecoveryMismatch,
                  "post-recovery key " + std::to_string(pair.key) + ": " +
                      (got.ok() ? "wrong value" : got.status().ToString()));
    }
  }
  return CaseResult{};
}

void ServiceFields(ServiceCase* c, InertBankKeys* inert,
                   std::vector<JsonField>* fields) {
  fields->push_back(UintField("crash_time", &c->crash_offset));
  fields->push_back(UintField("serve_warmup_ops", &c->warmup_ops));
  fields->push_back(UintField("serve_txn_pairs", &c->txn_pairs));
  fields->push_back(UintField("total_ops", &inert->total_ops));
  fields->push_back(UintField("crash_step", &inert->crash_step));
  fields->push_back(BoolField("mid_op", &inert->mid_op));
  fields->push_back(StringField("line_survival", &inert->line_survival));
}

Status BindService(const ReproHeader& header, const InertBankKeys& inert,
                   ScenarioConfig* config, ServiceCase* c) {
  if (header.mechanism != Mechanism::kLogging || inert.total_ops != 1 ||
      inert.crash_step != 0 || inert.mid_op || !inert.line_survival.empty()) {
    return InvalidArgument(
        header.kind + " repro: the bank keys are inert and must read "
        "mechanism \"logging\", total_ops 1, crash_step 0, mid_op false, "
        "line_survival \"\"");
  }
  if (c->warmup_ops > kMaxWarmupOps) {
    return InvalidArgument(header.kind +
                           " repro: serve_warmup_ops must be at most " +
                           std::to_string(kMaxWarmupOps));
  }
  if (c->txn_pairs == 0 || c->txn_pairs > serve::Shard::kMaxTxnPairs) {
    return InvalidArgument(header.kind +
                           " repro: serve_txn_pairs must be in [1, " +
                           std::to_string(serve::Shard::kMaxTxnPairs) + "]");
  }
  config->mode = header.mode;
  config->enforce_ppo = header.enforce_ppo;
  config->break_recovery = header.break_recovery;
  c->seed = header.seed;
  return Status::Ok();
}

}  // namespace fuzz
}  // namespace nearpm
