#include "src/fuzz/serve_fuzzer.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/serve/router.h"
#include "src/trace/crash_cursor.h"

namespace nearpm {
namespace fuzz {
namespace {

using serve::KvService;
using serve::KvPair;
using serve::Shard;
using serve::ShardRouter;
using serve::TxnStopPhase;

// Committed-but-undrained puts issued right before the transaction, so the
// failure catches their device requests in flight (hardware recovery's
// frontier repair territory -- exactly what break_recovery breaks).
constexpr std::uint64_t kTailOps = 3;

// Tail keys live in [20000, 21000), clear of the shared warmup and txn
// ranges.
std::uint64_t TailKey(std::uint64_t seed, std::uint64_t j) {
  return 20000 + j * 131 + ShardRouter::Mix(seed ^ 0xABCDull) % 101;
}

}  // namespace

int ServeFuzzer::ParticipantCount(const ServeFuzzCase& c) const {
  ShardRouter router(config_.shards);
  return static_cast<int>(router.ParticipantsFor(TxnKeys(c)).size());
}

// Everything Run and Probe share: the service with the schedule's prefix
// executed, plus the reference data the oracles compare against.
struct ServeFuzzer::PrefixEnv {
  std::unique_ptr<KvService> service;
  KeyValues warmup;  // final expected value per warmup key
  std::vector<std::uint64_t> tail_keys;
  std::vector<KvPair> pairs;       // the crashed MultiPut
  std::uint64_t open_key = 0;      // the deliberately uncommitted put
};

Status ServeFuzzer::ExecutePrefix(const ServeFuzzCase& c,
                                  PrefixEnv* env) const {
  if (c.txn_pairs == 0 || c.txn_pairs > Shard::kMaxTxnPairs) {
    return InvalidArgument("txn_pairs out of range");
  }

  serve::ServeOptions so;
  so.shards = config_.shards;
  so.workers_per_shard = 1;
  so.queue_capacity = c.warmup_ops + kTailOps + 16;
  so.batch_max = 4;
  so.mode = config_.mode;
  so.enforce_ppo = config_.enforce_ppo;
  so.skip_recovery_replay = config_.break_recovery;
  so.break_intent_redo = config_.break_txn_redo;
  so.table_slots = kServiceTableSlots;
  so.value_size = kServiceValueSize;
  auto service_or = KvService::Create(so);
  if (!service_or.ok()) {
    return service_or.status();
  }
  env->service = std::move(*service_or);
  KvService& svc = *env->service;

  // ---- Warmup: committed puts through the queue/batch path, then drained
  // durable on every shard, so nothing here may ever be lost.
  StatusOr<KeyValues> warmup = SubmitWarmup(svc, c);
  if (!warmup.ok()) {
    return warmup.status();
  }
  env->warmup = std::move(*warmup);
  svc.Pump();
  for (int s = 0; s < svc.num_shards(); ++s) {
    std::lock_guard lock(svc.shard(s).mu());
    svc.shard(s).Drain(svc.shard(s).TxnTid());
  }

  // ---- Tail: committed but deliberately NOT drained, so the failure finds
  // their device requests in flight.
  for (std::uint64_t j = 0; j < kTailOps; ++j) {
    const std::uint64_t key = TailKey(c.seed, j);
    NEARPM_RETURN_IF_ERROR(SubmitPut(svc, key, MakeValue(c.seed, key, 0)));
    env->tail_keys.push_back(key);
  }
  svc.Pump();

  // ---- The cross-shard MultiPut, abandoned mid-protocol.
  env->pairs = TxnPairs(c, 1);

  // ---- One deliberately uncommitted upsert, parked on the coordinator
  // shard. The txn path drains that shard before every stop phase, so at
  // the failure the open op's undo records and data writes are all durable
  // and recovery must roll the data back -- the key ends up absent unless
  // the mechanism-side replay was skipped. Key range [30000, ...) is
  // disjoint from warmup, tail and txn keys.
  {
    const int coordinator = svc.router().ParticipantsFor(TxnKeys(c)).front();
    std::uint64_t key = 30000 + ShardRouter::Mix(c.seed ^ 0x5EEDull) % 211;
    while (svc.router().ShardFor(key) != coordinator) {
      ++key;
    }
    env->open_key = key;
    Shard& shard = svc.shard(coordinator);
    std::lock_guard lock(shard.mu());
    NEARPM_RETURN_IF_ERROR(shard.PutUncommitted(
        shard.WorkerTid(0), key, MakeValue(c.seed, key, 0)));
  }

  serve::TxnStop stop;
  stop.phase = c.phase;
  stop.apply_ordinal = c.apply_ordinal;
  const Status txn_status = svc.ExecuteMultiPut(env->pairs, stop);
  return CheckStop(c.phase != TxnStopPhase::kNone, txn_status);
}

StatusOr<std::vector<SimTime>> ServeFuzzer::Probe(
    const ServeFuzzCase& c) const {
  PrefixEnv env;
  NEARPM_RETURN_IF_ERROR(ExecutePrefix(c, &env));
  KvService& svc = *env.service;

  // Each shard's candidates relative to its own clock: offset 0 is "right
  // now" everywhere, larger offsets land inside the in-flight windows of
  // every shard simultaneously.
  std::vector<SimTime> offsets;
  for (int s = 0; s < svc.num_shards(); ++s) {
    Shard& shard = svc.shard(s);
    std::lock_guard lock(shard.mu());
    const SimTime now = shard.rt().stats().MaxThreadTime();
    CrashCursorOptions co;
    co.epoch = shard.recorder().epoch();
    co.min_time = now;
    for (SimTime t : EnumerateCrashPoints(shard.recorder(), co)) {
      if (t > now) {
        offsets.push_back(t - now);
      }
    }
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  return offsets;
}

CaseResult ServeFuzzer::Run(const ServeFuzzCase& c) const {
  PrefixEnv env;
  Status prefix = ExecutePrefix(c, &env);
  if (!prefix.ok()) {
    return Fail(FailureKind::kHarness, "harness: " + prefix.ToString());
  }
  KvService& svc = *env.service;

  // ---- Power failure on every shard, offset into each shard's own
  // timeline so the instant lands inside its in-flight window.
  svc.CrashAll(CrashPlans(svc, MaskedNodes(svc.num_shards(), ~0ull), c));
  AnalyzeSnapshots(svc, config_.sanitizer);

  const Status recovered = svc.RecoverAll();
  if (!recovered.ok()) {
    return Fail(FailureKind::kRecoverError, recovered.ToString());
  }

  auto read = [&svc](std::uint64_t key) {
    Shard& shard = svc.shard(svc.router().ShardFor(key));
    std::lock_guard lock(shard.mu());
    return shard.Get(shard.TxnTid(), key);
  };

  // ---- Oracle: drained warmup data survives bit-for-bit.
  for (const auto& [key, value] : env.warmup) {
    auto got = read(key);
    if (!got.ok() || *got != value) {
      return Fail(FailureKind::kLostCommitted,
                  "warmup key " + std::to_string(key) + ": " +
                      (got.ok() ? "wrong value" : got.status().ToString()));
    }
  }

  // ---- Oracle: tail puts are atomic. Each key is either absent (the
  // in-flight request was legitimately lost) or carries exactly its value;
  // anything else is a torn write.
  for (std::uint64_t key : env.tail_keys) {
    auto got = read(key);
    if (got.ok() && *got != MakeValue(c.seed, key, 0)) {
      return Fail(FailureKind::kTornWrite,
                  "tail key " + std::to_string(key) + " recovered torn");
    }
    if (!got.ok() && got.status().code() != StatusCode::kNotFound) {
      return Fail(FailureKind::kHarness,
                  "harness: tail read: " + got.status().ToString());
    }
  }

  // ---- Oracle: the open put rolled back. Its undo records were durable at
  // the failure (the coordinator drained after they were issued), so
  // recovery must erase the data writes; any surviving value means the
  // rollback was skipped.
  if (env.open_key != 0) {
    auto got = read(env.open_key);
    if (got.ok()) {
      return Fail(FailureKind::kUncommittedDurable,
                  "uncommitted key " + std::to_string(env.open_key) +
                      " survived recovery");
    }
    if (got.status().code() != StatusCode::kNotFound) {
      return Fail(FailureKind::kHarness,
                  "harness: uncommitted read: " + got.status().ToString());
    }
  }

  // ---- Oracle: the MultiPut is all-or-nothing -- and because every stop
  // phase lies after the intent drained durable, recovery's redo must land
  // the whole transaction on every participant.
  std::uint64_t applied = 0;
  for (const KvPair& pair : env.pairs) {
    auto got = read(pair.key);
    if (got.ok() && *got == pair.value) {
      ++applied;
    }
  }
  if (applied != env.pairs.size()) {
    return Fail(FailureKind::kTornTxn,
                "txn recovered " + std::to_string(applied) + "/" +
                    std::to_string(env.pairs.size()) +
                    " pairs despite a durable intent");
  }

  // ---- Oracle: the Section 4 PPO invariants hold on every shard's trace.
  if (CaseResult ppo = PpoOracle(svc); !ppo.ok()) {
    return ppo;
  }

  // ---- Oracle: the recovered service still serves correctly.
  return PostRecoveryOracle(
      c, "MultiPut",
      [&svc](const std::vector<KvPair>& pairs) {
        return svc.ExecuteMultiPut(pairs);
      },
      read);
}

std::vector<ServeFuzzCase> ServeFuzzer::SystematicCases(
    std::uint64_t seed, std::size_t max_candidates) const {
  ServeFuzzCase base;
  base.seed = seed;
  const int k = ParticipantCount(base);

  std::vector<ServeFuzzCase> cases;
  for (const TxnStopPhase phase : TxnStopPhaseNames().All()) {
    const bool per_ordinal = phase == TxnStopPhase::kMidApply ||
                             phase == TxnStopPhase::kAfterApply;
    const int ordinals = per_ordinal ? k : 1;
    for (int ordinal = 0; ordinal < ordinals; ++ordinal) {
      ServeFuzzCase probe_case = base;
      probe_case.phase = phase;
      probe_case.apply_ordinal = ordinal;

      // "Right now" plus an even subsample of the enumerated in-flight
      // instants reachable from this stop point.
      std::vector<std::uint64_t> instants{0};
      if (max_candidates > 0) {
        auto candidates = Probe(probe_case);
        if (candidates.ok() && !candidates->empty()) {
          const std::size_t take =
              std::min(max_candidates, candidates->size());
          for (std::size_t i = 0; i < take; ++i) {
            instants.push_back(
                (*candidates)[i * candidates->size() / take]);
          }
        }
      }
      for (std::uint64_t instant : instants) {
        for (bool survive : {false, true}) {
          ServeFuzzCase c = probe_case;
          c.crash_offset = instant;
          c.lines_survive = survive;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

SweepStats ServeFuzzer::Systematic(
    std::uint64_t seed, std::size_t max_candidates,
    std::vector<Failure<ServeFuzzCase>>* failures) const {
  return Sweep(SystematicCases(seed, max_candidates),
               [this](const ServeFuzzCase& c) { return Run(c); }, failures);
}

CrashRepro ServeFuzzer::ToRepro(const ServeFuzzCase& c,
                                const std::string& expect,
                                const std::string& note) const {
  // The serving layer is pinned to undo logging.
  return MakeRepro(ServeRepro::kKind, std::make_shared<ServeRepro>(config_, c),
                   config_, Mechanism::kLogging, c.seed, expect, note);
}

void ServeRepro::Fields(std::vector<JsonField>* fields) {
  ServiceFields(&fuzz_case, &inert, fields);
  fields->push_back(IntField("serve_shards", &config.shards, 1, 64));
  fields->push_back(
      NamedField("serve_phase", &fuzz_case.phase, &TxnStopPhaseNames()));
  fields->push_back(
      IntField("serve_apply_ordinal", &fuzz_case.apply_ordinal, 0, 63));
  fields->push_back(BoolField("serve_survive", &fuzz_case.lines_survive));
  fields->push_back(
      BoolField("serve_break_txn_redo", &config.break_txn_redo));
}

Status ServeRepro::Bind(const ReproHeader& header) {
  return BindService(header, inert, &config, &fuzz_case);
}

CaseResult ServeRepro::Run(analyze::PmSanitizer* sanitizer) const {
  ServeFuzzConfig live = config;
  live.sanitizer = sanitizer;
  return ServeFuzzer(live).Run(fuzz_case);
}

std::string ServeRepro::FileName() const {
  std::string name = "serve_";
  name += ExecModeName(config.mode);
  if (!config.enforce_ppo) {
    name += "_noppo";
  }
  if (config.break_recovery) {
    name += "_skiprec";
  }
  if (config.break_txn_redo) {
    name += "_brokentxn";
  }
  name += "_s" + std::to_string(fuzz_case.seed);
  name += "_";
  name += TxnStopPhaseNames().Name(fuzz_case.phase);
  name += std::to_string(fuzz_case.apply_ordinal);
  name += fuzz_case.lines_survive ? "_surv" : "_drop";
  name += ".json";
  return name;
}

}  // namespace fuzz
}  // namespace nearpm
