#include "src/serve/serve_fuzzer.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/serve/router.h"
#include "src/trace/crash_cursor.h"

namespace nearpm {
namespace serve {
namespace {

// Committed-but-undrained puts issued right before the transaction, so the
// failure catches their device requests in flight (hardware journal replay
// territory -- exactly what skip_recovery_replay breaks).
constexpr std::uint64_t kTailOps = 3;

// Key ranges are disjoint by construction so the oracles never alias:
// warmup < 2000, txn in [10000, 11000), tail in [20000, 21000).
std::uint64_t WarmupKey(std::uint64_t seed, std::uint64_t i) {
  return 1000 +
         ShardRouter::Mix(seed ^ (0x9E3779B97F4A7C15ull * (i + 1))) % 997;
}

std::uint64_t TxnKey(std::uint64_t seed, std::uint64_t j) {
  return 10000 + j * 97 + ShardRouter::Mix(seed) % 89;
}

std::uint64_t TailKey(std::uint64_t seed, std::uint64_t j) {
  return 20000 + j * 131 + ShardRouter::Mix(seed ^ 0xABCDull) % 101;
}

ServeCaseResult Fail(ServeFailureKind kind, std::string detail) {
  ServeCaseResult result;
  result.failure = kind;
  result.detail = std::move(detail);
  return result;
}

// Deterministic value payload: generation distinguishes warmup (0), the
// crashed txn (1) and post-recovery traffic (2).
std::vector<std::uint8_t> MakeValue(const ServeFuzzConfig& config,
                                    std::uint64_t seed, std::uint64_t key,
                                    std::uint64_t generation) {
  const std::uint64_t base =
      ShardRouter::Mix(seed ^ (key * 3 + 1) ^ (generation << 56));
  std::vector<std::uint8_t> value(config.value_size);
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<std::uint8_t>((base >> ((i % 8) * 8)) ^ i);
  }
  return value;
}

}  // namespace

const char* ServeFailureKindName(ServeFailureKind kind) {
  switch (kind) {
    case ServeFailureKind::kNone:
      return "none";
    case ServeFailureKind::kHarness:
      return "harness";
    case ServeFailureKind::kRecoverError:
      return "recover_error";
    case ServeFailureKind::kLostCommitted:
      return "lost_committed";
    case ServeFailureKind::kTornWrite:
      return "torn_write";
    case ServeFailureKind::kUncommittedDurable:
      return "uncommitted_durable";
    case ServeFailureKind::kTornTxn:
      return "torn_txn";
    case ServeFailureKind::kPpoViolation:
      return "ppo_violation";
    case ServeFailureKind::kPostRecoveryMismatch:
      return "post_recovery_mismatch";
  }
  return "unknown";
}

const char* ServeFuzzer::PhaseName(TxnStopPhase phase) {
  switch (phase) {
    case TxnStopPhase::kNone:
      return "none";
    case TxnStopPhase::kAfterIntent:
      return "after_intent";
    case TxnStopPhase::kMidApply:
      return "mid_apply";
    case TxnStopPhase::kAfterApply:
      return "after_apply";
    case TxnStopPhase::kAfterSync:
      return "after_sync";
  }
  return "unknown";
}

StatusOr<TxnStopPhase> ServeFuzzer::PhaseFromName(const std::string& name) {
  for (TxnStopPhase phase :
       {TxnStopPhase::kNone, TxnStopPhase::kAfterIntent,
        TxnStopPhase::kMidApply, TxnStopPhase::kAfterApply,
        TxnStopPhase::kAfterSync}) {
    if (name == PhaseName(phase)) {
      return phase;
    }
  }
  return InvalidArgument("unknown txn stop phase \"" + name + "\"");
}

int ServeFuzzer::ParticipantCount(const ServeFuzzCase& c) const {
  ShardRouter router(config_.shards);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t j = 0; j < c.txn_pairs; ++j) {
    keys.push_back(TxnKey(c.seed, j));
  }
  return static_cast<int>(router.ParticipantsFor(keys).size());
}

// Everything Run and Probe share: the service with the schedule's prefix
// executed, plus the reference data the oracles compare against.
struct ServeFuzzer::PrefixEnv {
  std::unique_ptr<KvService> service;
  // Final expected value per warmup key (later puts overwrite earlier).
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> warmup;
  std::vector<std::uint64_t> tail_keys;
  std::vector<KvPair> pairs;       // the crashed MultiPut
  std::uint64_t open_key = 0;      // the deliberately uncommitted put
};

Status ServeFuzzer::ExecutePrefix(const ServeFuzzCase& c,
                                  PrefixEnv* env) const {
  if (c.txn_pairs == 0 || c.txn_pairs > Shard::kMaxTxnPairs) {
    return InvalidArgument("txn_pairs out of range");
  }

  ServeOptions so;
  so.shards = config_.shards;
  so.workers_per_shard = 1;
  so.queue_capacity = c.warmup_ops + kTailOps + 16;
  so.batch_max = 4;
  so.mode = config_.mode;
  so.enforce_ppo = config_.enforce_ppo;
  so.skip_recovery_replay = config_.skip_recovery_replay;
  so.break_intent_redo = config_.break_txn_redo;
  so.table_slots = config_.table_slots;
  so.value_size = config_.value_size;
  auto service_or = KvService::Create(so);
  if (!service_or.ok()) {
    return service_or.status();
  }
  env->service = std::move(*service_or);
  KvService& svc = *env->service;

  // ---- Warmup: committed puts through the queue/batch path, then drained
  // durable on every shard, so nothing here may ever be lost.
  for (std::uint64_t i = 0; i < c.warmup_ops; ++i) {
    const std::uint64_t key = WarmupKey(c.seed, i);
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = MakeValue(config_, c.seed, key, 0);
    auto fut = svc.Submit(std::move(req));
    if (!fut.ok()) {
      return fut.status();
    }
    bool replaced = false;
    for (auto& [wkey, wvalue] : env->warmup) {
      if (wkey == key) {
        wvalue = MakeValue(config_, c.seed, key, 0);
        replaced = true;
      }
    }
    if (!replaced) {
      env->warmup.emplace_back(key, MakeValue(config_, c.seed, key, 0));
    }
  }
  svc.Pump();
  for (int s = 0; s < svc.num_shards(); ++s) {
    std::lock_guard lock(svc.shard(s).mu());
    svc.shard(s).Drain(svc.shard(s).TxnTid());
  }

  // ---- Tail: committed but deliberately NOT drained, so the failure finds
  // their device requests in flight.
  for (std::uint64_t j = 0; j < kTailOps; ++j) {
    const std::uint64_t key = TailKey(c.seed, j);
    ServeRequest req;
    req.kind = RequestKind::kPut;
    req.key = key;
    req.value = MakeValue(config_, c.seed, key, 0);
    auto fut = svc.Submit(std::move(req));
    if (!fut.ok()) {
      return fut.status();
    }
    env->tail_keys.push_back(key);
  }
  svc.Pump();

  // ---- The cross-shard MultiPut, abandoned mid-protocol.
  for (std::uint64_t j = 0; j < c.txn_pairs; ++j) {
    KvPair pair;
    pair.key = TxnKey(c.seed, j);
    pair.value = MakeValue(config_, c.seed, pair.key, 1);
    env->pairs.push_back(std::move(pair));
  }

  // ---- One deliberately uncommitted upsert, parked on the coordinator
  // shard. The txn path drains that shard before every stop phase, so at
  // the failure the open op's undo records and data writes are all durable
  // and recovery must roll the data back -- the key ends up absent unless
  // the mechanism-side replay was skipped. Key range [30000, ...) is
  // disjoint from warmup, tail and txn keys.
  {
    std::vector<std::uint64_t> keys;
    for (const KvPair& pair : env->pairs) {
      keys.push_back(pair.key);
    }
    const int coordinator = svc.router().ParticipantsFor(keys).front();
    std::uint64_t key = 30000 + ShardRouter::Mix(c.seed ^ 0x5EEDull) % 211;
    while (svc.router().ShardFor(key) != coordinator) {
      ++key;
    }
    env->open_key = key;
    Shard& shard = svc.shard(coordinator);
    std::lock_guard lock(shard.mu());
    NEARPM_RETURN_IF_ERROR(shard.PutUncommitted(
        shard.WorkerTid(0), key, MakeValue(config_, c.seed, key, 0)));
  }

  TxnStop stop;
  stop.phase = c.phase;
  stop.apply_ordinal = c.apply_ordinal;
  const Status txn_status = svc.ExecuteMultiPut(env->pairs, stop);
  if (c.phase == TxnStopPhase::kNone) {
    if (!txn_status.ok()) {
      return Internal("txn failed: " + txn_status.ToString());
    }
  } else if (txn_status.code() != StatusCode::kUnavailable) {
    return Internal("stop did not fire: " + txn_status.ToString());
  }
  return Status::Ok();
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

ServeCaseResult ServeFuzzer::Run(const ServeFuzzCase& c) const {
  PrefixEnv env;
  Status prefix = ExecutePrefix(c, &env);
  if (!prefix.ok()) {
    return Fail(ServeFailureKind::kHarness, "harness: " + prefix.ToString());
  }
  KvService& svc = *env.service;

  // ---- Power failure on every shard, offset into each shard's own
  // timeline so the instant lands inside its in-flight window.
  std::vector<CrashPlan> plans(svc.num_shards());
  for (int s = 0; s < svc.num_shards(); ++s) {
    Shard& shard = svc.shard(s);
    std::lock_guard lock(shard.mu());
    const std::uint64_t pending = shard.rt().space().PendingLineAddrs().size();
    plans[s].crash_time =
        c.crash_offset == 0
            ? 0  // right now
            : shard.rt().stats().MaxThreadTime() + c.crash_offset;
    plans[s].line_survival.assign(pending, c.lines_survive);
  }
  svc.CrashAll(plans);

  if (config_.trace_sink != nullptr) {
    config_.trace_sink->clear();
    for (int s = 0; s < svc.num_shards(); ++s) {
      config_.trace_sink->push_back(svc.shard(s).recorder().Snapshot());
    }
  }

  const Status recovered = svc.RecoverAll();
  if (!recovered.ok()) {
    return Fail(ServeFailureKind::kRecoverError, recovered.ToString());
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
      return Fail(ServeFailureKind::kLostCommitted,
                  "warmup key " + std::to_string(key) + ": " +
                      (got.ok() ? "wrong value" : got.status().ToString()));
    }
  }

  // ---- Oracle: tail puts are atomic. Each key is either absent (the
  // in-flight request was legitimately lost) or carries exactly its value;
  // anything else is a torn write.
  for (std::uint64_t key : env.tail_keys) {
    auto got = read(key);
    if (got.ok() && *got != MakeValue(config_, c.seed, key, 0)) {
      return Fail(ServeFailureKind::kTornWrite,
                  "tail key " + std::to_string(key) + " recovered torn");
    }
    if (!got.ok() && got.status().code() != StatusCode::kNotFound) {
      return Fail(ServeFailureKind::kHarness,
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
      return Fail(ServeFailureKind::kUncommittedDurable,
                  "uncommitted key " + std::to_string(env.open_key) +
                      " survived recovery");
    }
    if (got.status().code() != StatusCode::kNotFound) {
      return Fail(ServeFailureKind::kHarness,
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
    return Fail(ServeFailureKind::kTornTxn,
                "txn recovered " + std::to_string(applied) + "/" +
                    std::to_string(env.pairs.size()) +
                    " pairs despite a durable intent");
  }

  // ---- Oracle: the Section 4 PPO invariants hold on every shard's trace.
  std::string report;
  const std::uint64_t violations = svc.PpoViolations(&report);
  if (violations > 0) {
    return Fail(ServeFailureKind::kPpoViolation,
                std::to_string(violations) + " violation(s)\n" + report);
  }

  // ---- Oracle: the recovered service still serves correctly.
  std::vector<KvPair> again;
  for (const KvPair& pair : env.pairs) {
    KvPair next;
    next.key = pair.key;
    next.value = MakeValue(config_, c.seed, pair.key, 2);
    again.push_back(std::move(next));
  }
  const Status again_status = svc.ExecuteMultiPut(again);
  if (!again_status.ok()) {
    return Fail(ServeFailureKind::kPostRecoveryMismatch,
                "post-recovery MultiPut: " + again_status.ToString());
  }
  for (const KvPair& pair : again) {
    auto got = read(pair.key);
    if (!got.ok() || *got != pair.value) {
      return Fail(ServeFailureKind::kPostRecoveryMismatch,
                  "post-recovery key " + std::to_string(pair.key) + ": " +
                      (got.ok() ? "wrong value" : got.status().ToString()));
    }
  }
  return ServeCaseResult{};
}

fuzz::SweepStats ServeFuzzer::Systematic(
    std::uint64_t seed, std::size_t max_candidates,
    std::vector<ServeFuzzFailure>* failures) const {
  ServeFuzzCase base;
  base.seed = seed;
  const int k = ParticipantCount(base);

  std::vector<ServeFuzzCase> cases;
  for (TxnStopPhase phase :
       {TxnStopPhase::kNone, TxnStopPhase::kAfterIntent,
        TxnStopPhase::kMidApply, TxnStopPhase::kAfterApply,
        TxnStopPhase::kAfterSync}) {
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

  fuzz::SweepStats stats;
  for (const ServeFuzzCase& c : cases) {
    ++stats.cases;
    ServeCaseResult result = Run(c);
    if (!result.ok()) {
      ++stats.failures;
      if (failures != nullptr) {
        failures->push_back(ServeFuzzFailure{c, std::move(result)});
      }
    }
  }
  return stats;
}

fuzz::CrashRepro ServeFuzzer::ToRepro(const ServeFuzzCase& c,
                                      const std::string& expect,
                                      const std::string& note) const {
  fuzz::CrashRepro repro;
  repro.kind = "serve";
  repro.mechanism = Mechanism::kLogging;  // the serving layer is pinned
  repro.mode = config_.mode;
  repro.enforce_ppo = config_.enforce_ppo;
  repro.break_recovery = config_.skip_recovery_replay;
  repro.seed = c.seed;
  repro.total_ops = 1;  // bank-schedule fields are inert for serve repros
  repro.crash_step = 0;
  repro.crash_time = c.crash_offset;
  repro.serve_shards = static_cast<std::uint64_t>(config_.shards);
  repro.serve_warmup_ops = c.warmup_ops;
  repro.serve_txn_pairs = c.txn_pairs;
  repro.serve_phase = PhaseName(c.phase);
  repro.serve_apply_ordinal = static_cast<std::uint64_t>(c.apply_ordinal);
  repro.serve_survive = c.lines_survive;
  repro.serve_break_txn_redo = config_.break_txn_redo;
  repro.expect = expect;
  repro.note = note;
  return repro;
}

ServeFuzzConfig ServeFuzzer::ConfigFromRepro(const fuzz::CrashRepro& repro) {
  ServeFuzzConfig config;
  config.shards = static_cast<int>(repro.serve_shards);
  config.mode = repro.mode;
  config.enforce_ppo = repro.enforce_ppo;
  config.skip_recovery_replay = repro.break_recovery;
  config.break_txn_redo = repro.serve_break_txn_redo;
  return config;
}

StatusOr<ServeFuzzCase> ServeFuzzer::CaseFromRepro(
    const fuzz::CrashRepro& repro) {
  auto phase = PhaseFromName(repro.serve_phase);
  if (!phase.ok()) {
    return phase.status();
  }
  ServeFuzzCase c;
  c.seed = repro.seed;
  c.warmup_ops = repro.serve_warmup_ops;
  c.txn_pairs = repro.serve_txn_pairs;
  c.phase = *phase;
  c.apply_ordinal = static_cast<int>(repro.serve_apply_ordinal);
  c.crash_offset = repro.crash_time;
  c.lines_survive = repro.serve_survive;
  return c;
}

}  // namespace serve
}  // namespace nearpm
