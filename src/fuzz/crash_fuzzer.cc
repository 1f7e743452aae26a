#include "src/fuzz/crash_fuzzer.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/pmlib/heap.h"
#include "src/trace/crash_cursor.h"
#include "src/trace/ppo_checker.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace fuzz {
namespace {

// Fixed machine and ledger shape: every committed repro was recorded with
// these, so they are constants rather than configuration.
constexpr std::uint64_t kPmSize = 16ull << 20;
constexpr std::uint64_t kDataSize = 256ull << 10;
constexpr int kAccounts = 8;
constexpr int kCkptEpochOps = 4;

constexpr std::uint64_t kInitialBalance = 1000;
constexpr std::uint64_t kAccountStride = 2048;  // spans the interleave stripes
constexpr std::uint64_t kBlobSize = 4096;       // big enough for in-flight DMA

// One workload operation. Transfers move money between two accounts (two
// small stores pages apart, so one op spans both interleaved devices); blob
// fills rewrite a page-sized object (a large undo/redo/shadow copy stays in
// flight at the crash, the Section 2.3 shape).
struct Op {
  bool blob = false;
  int from = 0;
  int to = 1;
  std::uint64_t amount = 0;
  std::uint8_t fill = 0;
};

std::vector<Op> DeriveOps(std::uint64_t seed, std::uint64_t n) {
  Rng r(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Op op;
    op.blob = r.NextBool(0.25);
    if (op.blob) {
      // Fill bytes are 1..255: the pool starts zeroed, so every blob state
      // (including "never written") is distinguishable.
      op.fill = static_cast<std::uint8_t>(1 + r.NextBounded(255));
    } else {
      op.from = static_cast<int>(r.NextBounded(kAccounts));
      op.to = (op.from + 1 +
               static_cast<int>(r.NextBounded(kAccounts - 1))) %
              kAccounts;
      op.amount = r.Next() % 1000;
    }
    ops.push_back(op);
  }
  return ops;
}

// Pure reference model of the workload state.
struct ModelState {
  std::vector<std::uint64_t> balances;
  int blob_fill = 0;  // 0..255, or -1 for a torn (non-uniform) blob

  bool operator==(const ModelState& o) const {
    return balances == o.balances && blob_fill == o.blob_fill;
  }
};

void ApplyOp(ModelState* s, const Op& op) {
  if (op.blob) {
    s->blob_fill = op.fill;
    return;
  }
  const std::uint64_t moved = op.amount % (s->balances[op.from] + 1);
  s->balances[op.from] -= moved;
  s->balances[op.to] += moved;
}

std::string DescribeState(const ModelState& s) {
  std::string out = "balances=[";
  for (std::size_t i = 0; i < s.balances.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += std::to_string(s.balances[i]);
  }
  out += "] blob=";
  out += s.blob_fill < 0 ? "torn" : std::to_string(s.blob_fill);
  return out;
}

// Evenly subsamples `values` down to at most `keep` entries, always keeping
// the first and last.
std::vector<SimTime> Subsample(std::vector<SimTime> values, std::size_t keep) {
  if (keep == 0 || values.size() <= keep) {
    return values;
  }
  if (keep == 1) {
    return {values.front()};
  }
  std::vector<SimTime> out;
  out.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    out.push_back(values[i * (values.size() - 1) / (keep - 1)]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Maps a non-OK harness status (setup or op execution, not an oracle) onto
// the result: the engine, not the machine, broke.
bool HarnessOk(const Status& s, const char* what, CaseResult* result) {
  if (s.ok()) {
    return true;
  }
  *result = Fail(FailureKind::kHarness,
                 std::string("harness: ") + what + ": " + s.ToString());
  return false;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t case_index) {
  std::uint64_t x = seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
  x ^= (case_index + 1) * 0x2545F4914F6CDD1Dull;
  return x;
}

}  // namespace

struct CrashFuzzer::Env {
  std::unique_ptr<TraceRecorder> recorder;
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<PersistentHeap> heap;
  std::vector<Op> ops;
  std::vector<ModelState> ref;  // ref[k] = state after k committed ops
  std::uint64_t committed = 0;

  PmAddr AccountAddr(int i) const {
    return heap->root() + static_cast<PmAddr>(i) * kAccountStride;
  }
  PmAddr BlobAddr() const {
    return heap->root() + static_cast<PmAddr>(kAccounts) * kAccountStride;
  }

  Status RunOp(const Op& op, bool commit) {
    NEARPM_RETURN_IF_ERROR(heap->BeginOp(0));
    if (op.blob) {
      std::vector<std::uint8_t> bytes(kBlobSize, op.fill);
      NEARPM_RETURN_IF_ERROR(heap->Write(0, BlobAddr(), bytes));
    } else {
      auto a = heap->Load<std::uint64_t>(0, AccountAddr(op.from));
      if (!a.ok()) {
        return a.status();
      }
      auto b = heap->Load<std::uint64_t>(0, AccountAddr(op.to));
      if (!b.ok()) {
        return b.status();
      }
      const std::uint64_t moved = op.amount % (*a + 1);
      NEARPM_RETURN_IF_ERROR(
          heap->Store<std::uint64_t>(0, AccountAddr(op.from), *a - moved));
      NEARPM_RETURN_IF_ERROR(
          heap->Store<std::uint64_t>(0, AccountAddr(op.to), *b + moved));
    }
    if (!commit) {
      return Status::Ok();  // the power fails inside this operation
    }
    return heap->CommitOp(0);
  }

  StatusOr<ModelState> ReadState() {
    ModelState s;
    s.balances.resize(kAccounts);
    for (int i = 0; i < kAccounts; ++i) {
      auto v = heap->Load<std::uint64_t>(0, AccountAddr(i));
      if (!v.ok()) {
        return v.status();
      }
      s.balances[i] = *v;
    }
    std::vector<std::uint8_t> blob(kBlobSize);
    NEARPM_RETURN_IF_ERROR(heap->Read(0, BlobAddr(), blob));
    s.blob_fill = blob[0];
    for (std::uint8_t b : blob) {
      if (b != blob[0]) {
        s.blob_fill = -1;  // torn
        break;
      }
    }
    return s;
  }
};

bool CrashFuzzer::ExecutePrefix(const FuzzCase& c, Env* env,
                                CaseResult* result) const {
  RuntimeOptions opts;
  opts.mode = config_.mode;
  opts.pm_size = kPmSize;
  opts.enforce_ppo = config_.enforce_ppo;
  opts.skip_recovery_replay = config_.break_recovery;
  env->recorder = std::make_unique<TraceRecorder>();
  env->rt = std::make_unique<Runtime>(opts);
  env->rt->AttachTrace(env->recorder.get());
  if (config_.sanitizer != nullptr) {
    env->rt->AttachSanitizer(config_.sanitizer);
  }

  PoolArena arena(0);
  HeapOptions ho;
  ho.mechanism = config_.mechanism;
  ho.data_size = kDataSize;
  ho.ckpt_epoch_ops = kCkptEpochOps;
  auto heap = PersistentHeap::Create(*env->rt, arena, ho);
  if (!heap.ok()) {
    return HarnessOk(heap.status(), "heap create", result);
  }
  env->heap = std::move(*heap);

  // Mint: one committed op giving every account its initial balance.
  Status mint = env->heap->BeginOp(0);
  for (int i = 0; mint.ok() && i < kAccounts; ++i) {
    mint = env->heap->Store<std::uint64_t>(0, env->AccountAddr(i),
                                           kInitialBalance);
  }
  if (mint.ok()) {
    mint = env->heap->CommitOp(0);
  }
  if (!HarnessOk(mint, "mint", result)) {
    return false;
  }
  env->rt->DrainDevices(0);

  ModelState initial;
  initial.balances.assign(kAccounts, kInitialBalance);
  initial.blob_fill = 0;  // the pool starts zeroed
  env->ref.push_back(initial);

  env->ops = DeriveOps(c.seed, c.total_ops);
  for (std::uint64_t step = 0; step <= c.crash_step; ++step) {
    const bool last = step == c.crash_step;
    const bool commit = !(last && c.mid_op);
    if (!HarnessOk(env->RunOp(env->ops[step], commit),
                   "workload op", result)) {
      return false;
    }
    if (commit) {
      ModelState next = env->ref.back();
      ApplyOp(&next, env->ops[step]);
      env->ref.push_back(std::move(next));
      ++env->committed;
    }
  }
  return true;
}

ProbeResult CrashFuzzer::Probe(const FuzzCase& c) const {
  ProbeResult out;
  Env env;
  CaseResult scratch;
  if (!ExecutePrefix(c, &env, &scratch)) {
    return out;
  }
  CrashCursorOptions co;
  co.epoch = env.recorder->epoch();
  co.min_time = env.rt->stats().MaxThreadTime();
  out.candidates = EnumerateCrashPoints(*env.recorder, co);
  out.pending_lines = env.rt->space().PendingLineAddrs().size();
  return out;
}

CaseResult CrashFuzzer::Run(const FuzzCase& c,
                            RecoveredPrefix* recovered) const {
  Env env;
  CaseResult result;
  if (!ExecutePrefix(c, &env, &result)) {
    return result;
  }
  return RunOracles(c, &env, recovered);
}

CaseResult CrashFuzzer::RunOracles(const FuzzCase& c, Env* env,
                                   RecoveredPrefix* recovered) const {
  CaseResult result;
  CrashPlan plan;
  plan.crash_time = c.crash_time;  // 0 clamps to "now" inside InjectCrashAt
  plan.line_survival = c.line_survival;
  env->rt->InjectCrashAt(plan);
  env->heap->DropVolatile();

  // Oracle 1: recovery must succeed.
  Status rec = env->heap->Recover();
  if (!rec.ok()) {
    return Fail(FailureKind::kRecoverError, rec.ToString());
  }

  // Oracle 2: the recovered state equals the reference state after some
  // prefix of the committed operations.
  auto got = env->ReadState();
  if (!HarnessOk(got.status(), "read recovered state", &result)) {
    return result;
  }
  bool matched = false;
  ModelState matched_state;
  std::uint64_t matched_prefix = 0;
  for (std::uint64_t k = env->committed + 1; k-- > 0;) {
    if (*got == env->ref[k]) {
      matched_state = env->ref[k];
      matched_prefix = k;
      matched = true;
      break;
    }
  }
  if (!matched && config_.mechanism == Mechanism::kCheckpointing) {
    // Checkpointing recovers to the last closed epoch, and the mint itself
    // sits in a still-open epoch until ckpt_epoch_ops commits have passed:
    // rolling back to the pristine pool is a legal recovery target.
    ModelState genesis;
    genesis.balances.assign(kAccounts, 0);
    genesis.blob_fill = 0;
    if (*got == genesis) {
      matched_state = genesis;
      matched = true;
    }
  }
  if (!matched) {
    if (c.mid_op) {
      ModelState full = env->ref.back();
      ApplyOp(&full, env->ops[c.crash_step]);
      if (*got == full) {
        // The op the power interrupted is durable in full although it never
        // committed -- its log/shadow vanished with the crash. This is the
        // Section 2.3 lost-recovery-data symptom.
        return Fail(FailureKind::kUncommittedDurable,
                    "uncommitted op " + std::to_string(c.crash_step) +
                        " is fully durable after recovery: " +
                        DescribeState(*got));
      }
    }
    return Fail(FailureKind::kStateMismatch,
                "recovered state matches no committed prefix (committed=" +
                    std::to_string(env->committed) +
                    "): " + DescribeState(*got) +
                    "; last committed: " + DescribeState(env->ref.back()));
  }
  if (recovered != nullptr) {
    *recovered = RecoveredPrefix{env->committed, matched_prefix};
  }

  // Without PPO the machine makes no ordering promises, before or after the
  // crash: the ablation's oracle is the recovery-state check above, and the
  // trace is expected to violate the invariants. Stop here.
  if (!config_.enforce_ppo) {
    return result;
  }

  // Oracle 3: the recovered heap behaves exactly like the model afterwards.
  ModelState model = matched_state;
  Rng post(c.seed ^ 0xA5EED5EED5EEDull);
  for (int i = 0; i < 5; ++i) {
    Op op;
    op.from = static_cast<int>(post.NextBounded(kAccounts));
    op.to = (op.from + 1 +
             static_cast<int>(post.NextBounded(kAccounts - 1))) %
            kAccounts;
    op.amount = post.Next() % 500;
    if (!HarnessOk(env->RunOp(op, /*commit=*/true),
                   "post-recovery op", &result)) {
      return result;
    }
    ApplyOp(&model, op);
  }
  env->rt->DrainDevices(0);
  auto after = env->ReadState();
  if (!HarnessOk(after.status(), "read post-recovery state", &result)) {
    return result;
  }
  if (!(*after == model)) {
    return Fail(FailureKind::kPostRecoveryMismatch,
                "post-recovery divergence: " + DescribeState(*after) +
                    "; model: " + DescribeState(model));
  }

  // Oracle 4: the full trace (pre-crash epoch and recovery epoch) satisfies
  // the Section 4 PPO invariants.
  const auto violations = PpoChecker{}.Check(*env->recorder);
  if (!violations.empty()) {
    return Fail(FailureKind::kPpoViolation, PpoChecker::Report(violations));
  }
  return result;
}

std::vector<FuzzCase> CrashFuzzer::SystematicCases(
    std::uint64_t seed, std::uint64_t ops, std::size_t max_candidates) const {
  std::vector<FuzzCase> cases;
  for (std::uint64_t step = 0; step < ops; ++step) {
    for (const bool mid : {false, true}) {
      FuzzCase base;
      base.seed = seed;
      base.total_ops = ops;
      base.crash_step = step;
      base.mid_op = mid;
      const ProbeResult probe = Probe(base);
      std::vector<SimTime> candidates =
          Subsample(probe.candidates, max_candidates);
      if (candidates.empty()) {
        candidates.push_back(0);  // "right now" always exists
      }
      for (const SimTime t : candidates) {
        for (const bool survive : {false, true}) {
          FuzzCase c = base;
          c.crash_time = t;
          c.line_survival.assign(probe.pending_lines, survive);
          cases.push_back(std::move(c));
        }
      }
    }
  }
  return cases;
}

SweepStats CrashFuzzer::Systematic(
    std::uint64_t seed, std::uint64_t ops, std::size_t max_candidates,
    std::vector<Failure<FuzzCase>>* failures) const {
  return Sweep(SystematicCases(seed, ops, max_candidates),
               [this](const FuzzCase& c) { return Run(c); }, failures);
}

FuzzCase CrashFuzzer::BuildSweepCase(std::uint64_t seed,
                                     std::uint64_t case_index) const {
  Rng r(MixSeed(seed, case_index));
  FuzzCase c;
  c.seed = seed;
  c.total_ops = 3 + r.NextBounded(10);
  c.crash_step = r.NextBounded(c.total_ops);
  c.mid_op = r.NextBool(0.4);
  const ProbeResult probe = Probe(c);
  if (!probe.candidates.empty()) {
    c.crash_time = probe.candidates[r.NextBounded(probe.candidates.size())];
  }
  c.line_survival.resize(probe.pending_lines);
  for (std::size_t i = 0; i < c.line_survival.size(); ++i) {
    c.line_survival[i] = r.NextBool(0.5);
  }
  return c;
}

SweepStats CrashFuzzer::RandomSweep(
    std::uint64_t first_seed, std::uint64_t num_seeds, int cases_per_seed,
    std::vector<Failure<FuzzCase>>* failures) const {
  std::vector<FuzzCase> cases;
  for (std::uint64_t s = first_seed; s < first_seed + num_seeds; ++s) {
    for (int i = 0; i < cases_per_seed; ++i) {
      cases.push_back(BuildSweepCase(s, static_cast<std::uint64_t>(i)));
    }
  }
  return Sweep(cases, [this](const FuzzCase& c) { return Run(c); }, failures);
}

FuzzCase CrashFuzzer::Shrink(const FuzzCase& failing,
                             CaseResult* result) const {
  // Failure class: ordering violations shrink against ordering violations;
  // every state-corruption kind (recover error, mismatch, uncommitted
  // durable, post-recovery divergence) is one class, so the minimal repro
  // may surface the same bug under a simpler symptom.
  const auto cls = [](FailureKind k) {
    return k == FailureKind::kPpoViolation ? 1 : 0;
  };

  CaseResult orig = Run(failing);
  if (orig.ok()) {
    *result = orig;  // not reproducible; hand the case back untouched
    return failing;
  }
  FuzzCase best = failing;
  CaseResult best_result = orig;

  // 1. Drop the ops after the crash step (they never execute anyway, but a
  //    smaller schedule reads better in a repro file).
  if (best.total_ops > best.crash_step + 1) {
    FuzzCase t = best;
    t.total_ops = t.crash_step + 1;
    const CaseResult r = Run(t);
    if (!r.ok() && cls(r.failure) == cls(orig.failure)) {
      best = t;
      best_result = r;
    }
  }

  // 2. Earliest failing crash step, earliest failing candidate instant,
  //    under the two extreme survival masks.
  bool found = false;
  for (std::uint64_t step = 0; !found && step < best.crash_step; ++step) {
    for (const bool mid : {false, true}) {
      FuzzCase base;
      base.seed = best.seed;
      base.total_ops = step + 1;
      base.crash_step = step;
      base.mid_op = mid;
      const ProbeResult probe = Probe(base);
      std::vector<SimTime> candidates = Subsample(probe.candidates, 16);
      if (candidates.empty()) {
        candidates.push_back(0);
      }
      for (const SimTime t : candidates) {
        for (const bool survive : {false, true}) {
          FuzzCase c = base;
          c.crash_time = t;
          c.line_survival.assign(probe.pending_lines, survive);
          const CaseResult r = Run(c);
          if (!r.ok() && cls(r.failure) == cls(orig.failure)) {
            best = c;
            best_result = r;
            found = true;
            break;
          }
        }
        if (found) {
          break;
        }
      }
      if (found) {
        break;
      }
    }
  }

  // 3. Minimal survival mask: all-drop if it still fails, else greedily
  //    clear individual bits.
  const auto set_bits = [](const std::vector<bool>& v) {
    return std::count(v.begin(), v.end(), true);
  };
  if (set_bits(best.line_survival) > 0) {
    FuzzCase t = best;
    t.line_survival.assign(t.line_survival.size(), false);
    const CaseResult r = Run(t);
    if (!r.ok() && cls(r.failure) == cls(orig.failure)) {
      best = t;
      best_result = r;
    } else {
      for (std::size_t i = 0; i < best.line_survival.size(); ++i) {
        if (!best.line_survival[i]) {
          continue;
        }
        FuzzCase u = best;
        u.line_survival[i] = false;
        const CaseResult ru = Run(u);
        if (!ru.ok() && cls(ru.failure) == cls(orig.failure)) {
          best = u;
          best_result = ru;
        }
      }
    }
  }

  *result = best_result;
  return best;
}

CrashRepro CrashFuzzer::ToRepro(const FuzzCase& c, const std::string& expect,
                                const std::string& note) const {
  return MakeRepro(BankRepro::kKind, std::make_shared<BankRepro>(config_, c),
                   config_, config_.mechanism, c.seed, expect, note);
}

void BankRepro::Fields(std::vector<JsonField>* fields) {
  JsonField survival;
  survival.key = "line_survival";
  survival.read = [this](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kString ||
        v.str.find_first_not_of("01") != std::string::npos) {
      return InvalidArgument("must be a string of 0s and 1s");
    }
    fuzz_case.line_survival.clear();
    for (const char bit : v.str) {
      fuzz_case.line_survival.push_back(bit == '1');
    }
    return Status::Ok();
  };
  survival.write = [this]() -> std::optional<JsonValue> {
    std::string bits;
    for (const bool bit : fuzz_case.line_survival) {
      bits.push_back(bit ? '1' : '0');
    }
    return JsonValue::String(bits);
  };
  fields->push_back(UintField("total_ops", &fuzz_case.total_ops));
  fields->push_back(UintField("crash_step", &fuzz_case.crash_step));
  fields->push_back(BoolField("mid_op", &fuzz_case.mid_op));
  fields->push_back(UintField("crash_time", &fuzz_case.crash_time));
  fields->push_back(std::move(survival));
}

Status BankRepro::Bind(const ReproHeader& header) {
  config.mechanism = header.mechanism;
  config.mode = header.mode;
  config.enforce_ppo = header.enforce_ppo;
  config.break_recovery = header.break_recovery;
  fuzz_case.seed = header.seed;
  if (fuzz_case.total_ops == 0 ||
      fuzz_case.crash_step >= fuzz_case.total_ops) {
    return InvalidArgument("crash_step must lie inside total_ops");
  }
  return Status::Ok();
}

CaseResult BankRepro::Run(analyze::PmSanitizer* sanitizer) const {
  FuzzConfig live = config;
  live.sanitizer = sanitizer;
  return CrashFuzzer(live).Run(fuzz_case);
}

std::string BankRepro::FileName() const {
  std::string name = "fuzz_";
  name += MechanismName(config.mechanism);
  name += "_";
  name += ExecModeName(config.mode);
  if (!config.enforce_ppo) {
    name += "_noppo";
  }
  if (config.break_recovery) {
    name += "_brokenrec";
  }
  name += "_s" + std::to_string(fuzz_case.seed);
  name += "_op" + std::to_string(fuzz_case.crash_step);
  name += fuzz_case.mid_op ? "m" : "c";
  name += "_t" + std::to_string(fuzz_case.crash_time);
  name += ".json";
  return name;
}

}  // namespace fuzz
}  // namespace nearpm
