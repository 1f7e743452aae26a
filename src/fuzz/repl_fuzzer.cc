#include "src/fuzz/repl_fuzzer.h"

#include <mutex>
#include <utility>

#include "src/analyze/sanitizer.h"
#include "src/analyze/trace_analyzer.h"
#include "src/serve/router.h"

namespace nearpm {
namespace fuzz {

using repl::ReplicatedKvService;
using repl::ReplStopPhase;
using serve::KvPair;
using serve::Shard;
using serve::ShardRouter;

int ReplFuzzer::ParticipantCount(const ReplFuzzCase& c) const {
  ShardRouter router(config_.groups, config_.replicas);
  return static_cast<int>(router.ParticipantsFor(TxnKeys(c)).size());
}

// Everything Run shares across its stages: the cluster with the schedule's
// prefix executed, plus the reference data the oracles compare against.
struct ReplFuzzer::PrefixEnv {
  std::unique_ptr<ReplicatedKvService> service;
  KeyValues warmup;  // final expected value per warmup key
  std::vector<KvPair> pairs;  // the crashed transaction
};

Status ReplFuzzer::ExecutePrefix(const ReplFuzzCase& c,
                                 PrefixEnv* env) const {
  if (c.txn_pairs == 0 || c.txn_pairs > Shard::kMaxTxnPairs) {
    return InvalidArgument("txn_pairs out of range");
  }

  repl::ReplOptions ro;
  ro.groups = config_.groups;
  ro.replicas = config_.replicas;
  ro.protocol = config_.protocol;
  ro.workers_per_shard = 1;
  ro.queue_capacity = c.warmup_ops + 16;
  ro.batch_max = 4;
  ro.mode = config_.mode;
  ro.enforce_ppo = config_.enforce_ppo;
  ro.skip_recovery_replay = config_.break_recovery;
  ro.break_intent_redo = config_.break_intent_redo;
  ro.skip_redo_persist = config_.skip_redo_persist;
  ro.table_slots = kServiceTableSlots;
  ro.value_size = kServiceValueSize;
  auto service_or = ReplicatedKvService::Create(ro);
  if (!service_or.ok()) {
    return service_or.status();
  }
  env->service = std::move(*service_or);
  ReplicatedKvService& svc = *env->service;

  // ---- Warmup: puts through the queue path. Every one rides the full
  // replicated commit (intent + replicate + apply + retire), so by the time
  // Pump returns they are acked and durable on every replica -- nothing
  // here may ever be lost, on any replica.
  StatusOr<KeyValues> warmup = SubmitWarmup(svc, c);
  if (!warmup.ok()) {
    return warmup.status();
  }
  env->warmup = std::move(*warmup);
  svc.Pump();

  // ---- The replicated transaction, abandoned mid-protocol.
  env->pairs = TxnPairs(c, 1);
  repl::ReplStop stop;
  stop.phase = c.phase;
  stop.ordinal = c.ordinal;
  const Status txn_status = svc.ExecuteReplicatedTxn(env->pairs, stop);
  return CheckStop(c.phase != ReplStopPhase::kNone, txn_status);
}

CaseResult ReplFuzzer::Run(const ReplFuzzCase& c) const {
  PrefixEnv env;
  Status prefix = ExecutePrefix(c, &env);
  if (!prefix.ok()) {
    return Fail(FailureKind::kHarness, "harness: " + prefix.ToString());
  }
  ReplicatedKvService& svc = *env.service;
  const int nodes = svc.num_nodes();

  // ---- Power failure on the node subset the mask names, offset into each
  // crashed node's own timeline.
  const std::vector<int> crash_nodes = MaskedNodes(nodes, c.crash_mask);
  if (crash_nodes.empty()) {
    return Fail(FailureKind::kHarness, "harness: crash mask selects no node");
  }
  svc.CrashReplicas(crash_nodes, CrashPlans(svc, crash_nodes, c));
  AnalyzeSnapshots(svc, config_.sanitizer);

  // ---- Failover: every group whose routed primary died but that still has
  // a live replica promotes it, and the promoted backup must serve every
  // acked key of its group exactly -- before any node recovers.
  std::vector<bool> failed_over(svc.num_groups(), false);
  for (int g = 0; g < svc.num_groups(); ++g) {
    if (svc.alive(svc.router().PrimaryNodeFor(g))) {
      continue;
    }
    bool any_live = false;
    for (int r = 0; r < svc.options().replicas; ++r) {
      any_live = any_live || svc.alive(svc.router().NodeFor(g, r));
    }
    if (!any_live) {
      continue;  // whole group down; only RecoverAll can bring it back
    }
    const Status promoted = svc.Failover(g);
    if (!promoted.ok()) {
      return Fail(FailureKind::kFailoverError,
                  "group " + std::to_string(g) + ": " + promoted.ToString());
    }
    failed_over[g] = true;
  }
  for (const auto& [key, value] : env.warmup) {
    const int g = svc.router().ShardFor(key);
    if (!failed_over[g]) {
      continue;
    }
    auto got = svc.Read(key);
    if (!got.ok() || *got != value) {
      return Fail(FailureKind::kFailoverError,
                  "promoted backup of group " + std::to_string(g) +
                      " misserves acked key " + std::to_string(key) + ": " +
                      (got.ok() ? "wrong value" : got.status().ToString()));
    }
  }

  // ---- Recovery of every crashed node, then union reconciliation.
  const Status recovered = svc.RecoverAll();
  if (!recovered.ok()) {
    return Fail(FailureKind::kRecoverError, recovered.ToString());
  }

  auto read_replica = [&svc](int group, int replica, std::uint64_t key) {
    Shard& shard = svc.node(group, replica);
    std::lock_guard lock(shard.mu());
    return shard.Get(shard.TxnTid(), key);
  };

  // ---- Oracle: acked warmup data survives bit-for-bit on EVERY replica.
  for (const auto& [key, value] : env.warmup) {
    const int g = svc.router().ShardFor(key);
    for (int r = 0; r < svc.options().replicas; ++r) {
      auto got = read_replica(g, r, key);
      if (!got.ok() || *got != value) {
        return Fail(FailureKind::kLostCommitted,
                    "warmup key " + std::to_string(key) + " on node " +
                        std::to_string(svc.router().NodeFor(g, r)) + ": " +
                        (got.ok() ? "wrong value" : got.status().ToString()));
      }
    }
  }

  // ---- Oracle: the transaction is all-or-nothing -- and because every
  // stop phase lies after the coordinator intent drained durable, recovery
  // must land the whole transaction on every replica of every owner.
  std::uint64_t applied = 0;
  std::uint64_t expected = 0;
  for (const KvPair& pair : env.pairs) {
    const int g = svc.router().ShardFor(pair.key);
    for (int r = 0; r < svc.options().replicas; ++r) {
      ++expected;
      auto got = read_replica(g, r, pair.key);
      if (got.ok() && *got == pair.value) {
        ++applied;
      }
    }
  }
  if (applied != expected) {
    return Fail(FailureKind::kTornTxn,
                "txn recovered " + std::to_string(applied) + "/" +
                    std::to_string(expected) +
                    " replica copies despite a durable intent");
  }

  // ---- Oracle: replicas of each group converged bit-for-bit.
  for (int g = 0; g < svc.num_groups(); ++g) {
    auto reference = svc.DumpReplica(g, 0);
    if (!reference.ok()) {
      return Fail(FailureKind::kHarness,
                  "harness: dump: " + reference.status().ToString());
    }
    for (int r = 1; r < svc.options().replicas; ++r) {
      auto image = svc.DumpReplica(g, r);
      if (!image.ok()) {
        return Fail(FailureKind::kHarness,
                    "harness: dump: " + image.status().ToString());
      }
      bool same = reference->size() == image->size();
      for (std::size_t i = 0; same && i < reference->size(); ++i) {
        same = (*reference)[i].key == (*image)[i].key &&
               (*reference)[i].value == (*image)[i].value;
      }
      if (!same) {
        return Fail(FailureKind::kDivergentReplica,
                    "group " + std::to_string(g) + ": replica " +
                        std::to_string(r) + " diverges from replica 0 (" +
                        std::to_string(reference->size()) + " vs " +
                        std::to_string(image->size()) + " keys)");
      }
    }
  }

  // ---- Oracle: no doorbell raced its redo record (NPM007). Each node's
  // trace replays through the PM-Sanitizer; only the replication rule
  // counts here -- the other rules have their own drivers.
  for (int n = 0; n < nodes; ++n) {
    Shard& shard = svc.node(n);
    std::lock_guard lock(shard.mu());
    analyze::PmSanitizer san;
    analyze::AnalyzeTrace(shard.recorder().Snapshot(), &san);
    const std::uint64_t hazards = san.sink().count(analyze::RuleId::kNpm007);
    if (hazards > 0) {
      return Fail(FailureKind::kDoorbellHazard,
                  "node " + std::to_string(n) + ": " +
                      std::to_string(hazards) +
                      " doorbell(s) rung before the record persisted");
    }
  }

  // ---- Oracle: the Section 4 PPO invariants hold on every node's trace.
  if (CaseResult ppo = PpoOracle(svc); !ppo.ok()) {
    return ppo;
  }

  // ---- Oracle: the recovered cluster still serves correctly.
  return PostRecoveryOracle(
      c, "txn",
      [&svc](const std::vector<KvPair>& pairs) {
        return svc.ExecuteReplicatedTxn(pairs);
      },
      [&svc](std::uint64_t key) { return svc.Read(key); });
}

std::vector<ReplFuzzCase> ReplFuzzer::SystematicCases(
    std::uint64_t seed) const {
  ReplFuzzCase base;
  base.seed = seed;
  const int k = ParticipantCount(base);
  const int backups = config_.replicas - 1;
  const int nodes = config_.groups * config_.replicas;
  const std::uint64_t masks = nodes >= 64 ? ~0ull : (1ull << nodes) - 1;

  std::vector<ReplFuzzCase> cases;
  for (const ReplStopPhase phase : ReplStopPhaseNames().All()) {
    int ordinals = 1;
    if (phase == ReplStopPhase::kMidReplicate) {
      ordinals = backups;
      if (ordinals == 0) {
        continue;  // unreplicated cluster: no mid-replicate point exists
      }
    } else if (phase == ReplStopPhase::kMidApply ||
               phase == ReplStopPhase::kAfterApply) {
      ordinals = k;
    }
    for (int ordinal = 0; ordinal < ordinals; ++ordinal) {
      for (std::uint64_t mask = 1; mask <= masks; ++mask) {
        for (bool survive : {false, true}) {
          ReplFuzzCase c = base;
          c.phase = phase;
          c.ordinal = ordinal;
          c.crash_mask = mask;
          c.lines_survive = survive;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

SweepStats ReplFuzzer::Systematic(
    std::uint64_t seed, std::vector<Failure<ReplFuzzCase>>* failures) const {
  return Sweep(SystematicCases(seed),
               [this](const ReplFuzzCase& c) { return Run(c); }, failures);
}

CrashRepro ReplFuzzer::ToRepro(const ReplFuzzCase& c,
                               const std::string& expect,
                               const std::string& note) const {
  // The serving tier is pinned to undo logging.
  return MakeRepro(ReplRepro::kKind, std::make_shared<ReplRepro>(config_, c),
                   config_, Mechanism::kLogging, c.seed, expect, note);
}

void ReplRepro::Fields(std::vector<JsonField>* fields) {
  ServiceFields(&fuzz_case, &inert, fields);
  fields->push_back(IntField("repl_groups", &config.groups, 1, 64));
  fields->push_back(IntField("repl_replicas", &config.replicas, 1, 64));
  fields->push_back(NamedField("repl_protocol", &config.protocol,
                               &repl::ReplProtocolNames()));
  fields->push_back(
      NamedField("repl_phase", &fuzz_case.phase, &ReplStopPhaseNames()));
  fields->push_back(IntField("repl_ordinal", &fuzz_case.ordinal, 0, 63));
  fields->push_back(UintField("repl_crash_mask", &fuzz_case.crash_mask));
  fields->push_back(BoolField("repl_survive", &fuzz_case.lines_survive));
  fields->push_back(
      BoolField("repl_break_intent_redo", &config.break_intent_redo));
  fields->push_back(
      BoolField("repl_skip_redo_persist", &config.skip_redo_persist));
}

Status ReplRepro::Bind(const ReproHeader& header) {
  if (config.groups * config.replicas > 64) {
    return InvalidArgument("repl repro: at most 64 nodes");
  }
  if (fuzz_case.crash_mask == 0) {
    return InvalidArgument("repl_crash_mask must name at least one node");
  }
  return BindService(header, inert, &config, &fuzz_case);
}

CaseResult ReplRepro::Run(analyze::PmSanitizer* sanitizer) const {
  ReplFuzzConfig live = config;
  live.sanitizer = sanitizer;
  return ReplFuzzer(live).Run(fuzz_case);
}

std::string ReplRepro::FileName() const {
  std::string name = "repl_";
  name += repl::ReplProtocolName(config.protocol);
  name += "_";
  name += ExecModeName(config.mode);
  if (!config.enforce_ppo) {
    name += "_noppo";
  }
  if (config.break_recovery) {
    name += "_skiprec";
  }
  if (config.break_intent_redo) {
    name += "_brokenredo";
  }
  if (config.skip_redo_persist) {
    name += "_nopersist";
  }
  name += "_s" + std::to_string(fuzz_case.seed);
  name += "_";
  name += ReplStopPhaseNames().Name(fuzz_case.phase);
  name += std::to_string(fuzz_case.ordinal);
  name += "_m" + std::to_string(fuzz_case.crash_mask);
  name += fuzz_case.lines_survive ? "_surv" : "_drop";
  name += ".json";
  return name;
}

std::optional<ScenarioRepro::RequiredFinding> ReplRepro::RequiredRule()
    const {
  if (!config.skip_redo_persist) {
    return std::nullopt;
  }
  return RequiredFinding{analyze::RuleId::kNpm007, "skip_redo_persist"};
}

}  // namespace fuzz
}  // namespace nearpm
