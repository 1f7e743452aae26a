#include "src/spec/conformance.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/analyze/rules.h"
#include "src/analyze/sanitizer.h"
#include "src/common/files.h"
#include "src/common/json.h"
#include "src/core/log_layout.h"
#include "src/core/options.h"
#include "src/core/runtime.h"
#include "src/pmem/pm_space.h"
#include "src/trace/crash_cursor.h"
#include "src/trace/ppo_checker.h"
#include "src/trace/recorder.h"
#include "src/trace/trace_event.h"

namespace nearpm {
namespace spec {

const NameTable<DisagreementKind>& DisagreementKindNames() {
  using K = DisagreementKind;
  static const NameTable<K> table{
      {K::kStateNotAllowed, "state-not-allowed"},
      {K::kCheckerFalseAlarm, "checker-false-alarm"},
      {K::kCheckerMissed, "checker-missed"},
      {K::kSanitizerFalseAlarm, "sanitizer-false-alarm"},
      {K::kSanitizerMissed, "sanitizer-missed"}};
  return table;
}

const char* DisagreementKindName(DisagreementKind kind) {
  return DisagreementKindNames().Name(kind);
}

namespace {

constexpr std::uint64_t kLineBytes = 64;

RuntimeOptions ProbeOptions(bool enforce) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.num_devices = kNumDevices;
  options.pm_size = kPmSize;
  options.interleave_stripe = kStripe;
  options.retain_crash_state = true;
  options.enforce_ppo = enforce;
  return options;
}

// Executes the first `prefix_len` instructions against a real runtime.
// Transaction ids restart at 1 per run so replays are bit-identical.
void ExecutePrefix(Runtime& rt, PoolId pool, const LitmusProgram& program,
                   std::size_t prefix_len) {
  std::uint64_t tx = 0;
  std::array<std::uint8_t, kLineBytes> buf{};
  for (std::size_t i = 0; i < prefix_len && i < program.instrs.size(); ++i) {
    const LitmusInstr& instr = program.instrs[i];
    const auto t = static_cast<ThreadId>(instr.thread);
    switch (instr.op) {
      case LOp::kWrite:
        buf.fill(instr.value);
        rt.Write(t, LocAddr(instr.loc), buf);
        break;
      case LOp::kPersist:
        rt.Persist(t, LocAddr(instr.loc), kLineBytes);
        break;
      case LOp::kFence:
        rt.Fence(t);
        break;
      case LOp::kRead:
        rt.Read(t, LocAddr(instr.loc), buf);
        break;
      case LOp::kLog:
        (void)rt.UndologCreate(pool, t, ++tx, LocAddr(instr.loc), kLineBytes,
                               SlotAddr(instr.slot));
        break;
      case LOp::kApply:
        (void)rt.ApplyLog(pool, t, SlotAddr(instr.slot), kLineBytes,
                          LocAddr(instr.loc));
        break;
      case LOp::kCommit: {
        std::vector<PmAddr> slots;
        slots.push_back(SlotAddr(instr.slot));
        if (instr.slot2 >= 0) {
          slots.push_back(SlotAddr(instr.slot2));
        }
        (void)rt.CommitLog(pool, t, slots);
        break;
      }
      case LOp::kSync:
        rt.DrainDevices(t);
        break;
    }
  }
}

// ---- Machine-state decoding -------------------------------------------------

std::uint64_t FillChecksum(std::uint8_t fill) {
  std::array<std::uint8_t, kLineBytes> buf;
  buf.fill(fill);
  return Checksum64(buf);
}

bool IsHeaderLine(int line) {
  for (int s = 0; s < kNumSlots; ++s) {
    if (line == SlotHeaderLine(s)) {
      return true;
    }
  }
  return false;
}

// Token of one persisted abstract line, mirroring AbsVal::Token. Anything
// the decoder cannot name ("?") can never be in the allowed set, so decode
// anomalies surface as state disagreements rather than silent passes.
std::string DecodeLine(const PmSpace& space, int line) {
  std::array<std::uint8_t, kLineBytes> buf{};
  space.NdpRead(LineAddr(line), buf);
  if (IsHeaderLine(line)) {
    SlotHeader header{};
    std::memcpy(&header, buf.data(), sizeof(header));
    if (header.magic == kUndoMagic && header.size == kLineBytes) {
      int target_loc = -1;
      for (int loc = 0; loc < kNumLocs; ++loc) {
        if (header.target == LocAddr(loc)) {
          target_loc = loc;
          break;
        }
      }
      int payload = -1;
      for (std::uint8_t f = 0; f <= 9; ++f) {
        if (header.checksum == FillChecksum(f)) {
          payload = f;
          break;
        }
      }
      if (target_loc < 0 || payload < 0) {
        return "?";
      }
      std::string out = "u:";
      out += LocName(target_loc);
      out += ':';
      out += static_cast<char>('0' + payload);
      return out;
    }
  }
  const bool uniform =
      std::all_of(buf.begin(), buf.end(), [&](std::uint8_t b) { return b == buf[0]; });
  if (uniform && buf[0] <= 9) {
    return std::string(1, static_cast<char>('0' + buf[0]));
  }
  return "?";
}

std::string DecodeMachineState(const PmSpace& space) {
  std::string out;
  for (int line = 0; line < kNumLines; ++line) {
    if (line > 0) {
      out += ',';
    }
    out += DecodeLine(space, line);
  }
  return out;
}

// ---- Independent trace witnesses --------------------------------------------
//
// A from-scratch reading of the invariant semantics off the raw trace. The
// witnesses arbitrate "spec predicts a race but the checker is silent": only
// a race the timing actually exhibited may be charged as a checker miss.
struct TraceWitness {
  bool inv1 = false;
  bool inv2 = false;
  bool inv3 = false;
  bool npm003 = false;
};

TraceWitness ScanWitnesses(const std::vector<TraceEvent>& events) {
  TraceWitness w;
  // The sanitizer retires requests at sync completion too (HarvestSyncs),
  // but at a host-clock instant the trace does not record; once any sync
  // completed, a trace-only NPM003 witness could blame reads the sanitizer
  // had already legitimately cleared. Stay one-sided and conservative.
  bool any_sync_complete = false;
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kSyncComplete) {
      any_sync_complete = true;
      break;
    }
  }
  struct Span {
    const TraceEvent* e = nullptr;
    bool retired = false;
  };
  std::vector<Span> spans;
  for (const TraceEvent& e : events) {
    switch (e.phase) {
      case TracePhase::kUnitExec:
      case TracePhase::kDeferredExec:
        if (e.phase == TracePhase::kDeferredExec) {
          bool multi = false;
          for (const Span& s : spans) {
            if (s.e->pid != e.pid) {
              multi = true;
              break;
            }
          }
          for (const Span& s : spans) {
            if (multi && s.e->phase == TracePhase::kUnitExec &&
                e.ts < s.e->end()) {
              w.inv3 = true;
            }
          }
        }
        spans.push_back(Span{&e, false});
        break;
      case TracePhase::kRetire:
        for (Span& s : spans) {
          if (s.e->seq == e.seq && s.e->pid == e.pid) {
            s.retired = true;
          }
        }
        break;
      case TracePhase::kCpuRead:
        for (const Span& s : spans) {
          if (s.e->range.Overlaps(e.range) && e.ts < s.e->end()) {
            w.inv1 = true;
            if (!s.retired && !any_sync_complete) {
              w.npm003 = true;
            }
          }
        }
        break;
      case TracePhase::kCpuPersist:
        for (const Span& s : spans) {
          const bool overlap = s.e->range.Overlaps(e.range) ||
                               s.e->range2.Overlaps(e.range);
          if (overlap && e.ts < s.e->end() && !s.retired) {
            w.inv2 = true;
          }
        }
        break;
      default:
        break;
    }
  }
  return w;
}

// ---- Per-prefix differential check ------------------------------------------

struct PrefixContext {
  const LitmusProgram& program;
  const ConformanceConfig& config;
  std::size_t prefix_len;
  std::vector<Disagreement>* out;
  ConformanceStats* stats;
};

void AddDisagreement(const PrefixContext& ctx, DisagreementKind kind,
                     std::string detail) {
  ctx.out->push_back(Disagreement{kind, ctx.program.name, ctx.program.Text(),
                                  ctx.prefix_len, std::move(detail)});
}

void CheckCheckerDifferential(const PrefixContext& ctx, const SpecExec& spec,
                              const TraceWitness& witness,
                              const std::vector<TraceEvent>& events) {
  PpoChecker checker;
  checker.require_full_history = true;
  checker.disable_invariants = ctx.config.weaken_checker;
  const std::vector<PpoViolation> violations = checker.Check(events);
  if (ctx.stats != nullptr) {
    ctx.stats->checker_violations += violations.size();
  }
  std::array<bool, 5> observed{};
  std::array<std::string, 5> first_detail;
  for (const PpoViolation& v : violations) {
    if (v.invariant >= 0 && v.invariant <= 4) {
      if (!observed[v.invariant]) {
        first_detail[v.invariant] = v.detail;
      }
      observed[v.invariant] = true;
    }
  }
  // The probe run neither wraps the ring nor crashes: invariants 0 and 4
  // can only fire as checker defects.
  for (int inv : {0, 4}) {
    if (observed[inv]) {
      AddDisagreement(ctx, DisagreementKind::kCheckerFalseAlarm,
                      "invariant " + std::to_string(inv) +
                          " on a crash-free probe run: " + first_detail[inv]);
    }
  }
  const std::array<bool, 3> predicted{spec.preds.inv1, spec.preds.inv2,
                                      spec.preds.inv3};
  const std::array<bool, 3> witnessed{witness.inv1, witness.inv2,
                                      witness.inv3};
  for (int inv = 1; inv <= 3; ++inv) {
    if (observed[inv] && !predicted[inv - 1]) {
      AddDisagreement(ctx, DisagreementKind::kCheckerFalseAlarm,
                      "checker reports invariant " + std::to_string(inv) +
                          " but the spec says the program cannot race: " +
                          first_detail[inv]);
    }
    if (predicted[inv - 1] && witnessed[inv - 1] && !observed[inv]) {
      AddDisagreement(ctx, DisagreementKind::kCheckerMissed,
                      "spec predicts and trace witnesses invariant " +
                          std::to_string(inv) + " but the checker is silent");
    }
  }
}

void CheckSanitizerDifferential(const PrefixContext& ctx, const SpecExec& spec,
                                const TraceWitness& witness,
                                const analyze::PmSanitizer& san) {
  const auto count = [&](analyze::RuleId rule) {
    return san.sink().count(rule);
  };
  if (ctx.stats != nullptr) {
    for (analyze::RuleId rule :
         {analyze::RuleId::kNpm001, analyze::RuleId::kNpm002,
          analyze::RuleId::kNpm003, analyze::RuleId::kNpm004,
          analyze::RuleId::kNpm005, analyze::RuleId::kNpm006,
          analyze::RuleId::kNpm007}) {
      ctx.stats->sanitizer_findings += count(rule);
    }
  }
  // Exact two-sided rules: the model mirrors the sanitizer's shadow and
  // per-device clock bookkeeping for these, so predicted iff observed.
  struct ExactRule {
    analyze::RuleId rule;
    bool predicted;
    const char* name;
  };
  const ExactRule exact[] = {
      {analyze::RuleId::kNpm002, spec.preds.npm002, "NPM002"},
      {analyze::RuleId::kNpm004, spec.preds.npm004, "NPM004"},
      {analyze::RuleId::kNpm005, spec.preds.npm005, "NPM005"},
      {analyze::RuleId::kNpm006, spec.preds.npm006, "NPM006"},
  };
  for (const ExactRule& r : exact) {
    const bool got = count(r.rule) > 0;
    if (got && !r.predicted) {
      AddDisagreement(ctx, DisagreementKind::kSanitizerFalseAlarm,
                      std::string(r.name) +
                          " reported but the spec says it cannot fire");
    }
    if (!got && r.predicted) {
      AddDisagreement(ctx, DisagreementKind::kSanitizerMissed,
                      std::string(r.name) +
                          " predicted by the spec but not reported");
    }
  }
  // NPM003's miss direction needs the timing witness (the race is a may).
  const bool npm003 = count(analyze::RuleId::kNpm003) > 0;
  if (npm003 && !spec.preds.npm003) {
    AddDisagreement(ctx, DisagreementKind::kSanitizerFalseAlarm,
                    "NPM003 reported but the spec says no un-stalled read "
                    "can observe an in-flight write set");
  }
  if (!npm003 && spec.preds.npm003 && witness.npm003) {
    AddDisagreement(ctx, DisagreementKind::kSanitizerMissed,
                    "spec predicts and trace witnesses NPM003 but the "
                    "sanitizer is silent");
  }
  // Litmus programs never open durable scopes or ring replication
  // doorbells: these rules firing at all is a sanitizer defect.
  if (count(analyze::RuleId::kNpm001) > 0) {
    AddDisagreement(ctx, DisagreementKind::kSanitizerFalseAlarm,
                    "NPM001 reported without any durable scope in the program");
  }
  if (count(analyze::RuleId::kNpm007) > 0) {
    AddDisagreement(ctx, DisagreementKind::kSanitizerFalseAlarm,
                    "NPM007 reported without any replication doorbell");
  }
}

void CheckCrashStates(const PrefixContext& ctx,
                      const std::vector<std::string>& allowed,
                      const std::vector<TraceEvent>& events, SimTime min_time,
                      std::size_t num_pending) {
  CrashCursorOptions cursor;
  cursor.epoch = 0;
  cursor.min_time = min_time;
  cursor.midpoints = true;
  std::vector<SimTime> times = EnumerateCrashPoints(events, cursor);
  if (times.size() > ctx.config.max_crash_candidates) {
    if (ctx.stats != nullptr) {
      ctx.stats->crash_candidates_truncated +=
          times.size() - ctx.config.max_crash_candidates;
    }
    times.resize(ctx.config.max_crash_candidates);
  }
  // Survival masks: everything dropped, everything survives, then each
  // pending line surviving alone, within the mask budget.
  std::vector<std::vector<bool>> masks;
  masks.emplace_back();  // all dropped (out-of-range indices do not survive)
  if (num_pending > 0) {
    masks.emplace_back(num_pending, true);
    for (std::size_t i = 0; i < num_pending && masks.size() < ctx.config.max_masks;
         ++i) {
      std::vector<bool> one(num_pending, false);
      one[i] = true;
      masks.push_back(std::move(one));
    }
  }
  for (const SimTime t : times) {
    for (const std::vector<bool>& mask : masks) {
      Runtime probe(ProbeOptions(ctx.config.enforce));
      const StatusOr<PoolId> pool = probe.RegisterPool(0, kPmSize);
      if (!pool.ok()) {
        AddDisagreement(ctx, DisagreementKind::kStateNotAllowed,
                        "probe pool registration failed: " +
                            pool.status().ToString());
        return;
      }
      ExecutePrefix(probe, *pool, ctx.program, ctx.prefix_len);
      CrashPlan plan;
      plan.crash_time = t;
      plan.line_survival = mask;
      (void)probe.space().Crash(plan);
      const std::string state = DecodeMachineState(probe.space());
      if (ctx.stats != nullptr) {
        ++ctx.stats->crash_states_checked;
      }
      if (!std::binary_search(allowed.begin(), allowed.end(), state)) {
        std::string mask_text;
        for (const bool b : mask) {
          mask_text += b ? '1' : '0';
        }
        AddDisagreement(
            ctx, DisagreementKind::kStateNotAllowed,
            "crash at t=" + std::to_string(t) + " mask=" +
                (mask_text.empty() ? std::string("drop-all") : mask_text) +
                " persisted [" + state + "] which is outside the " +
                std::to_string(allowed.size()) + " spec-allowed states");
        // One state disagreement per prefix is plenty for triage.
        return;
      }
    }
  }
}

void CheckRecoveryLeg(const PrefixContext& ctx) {
  Runtime probe(ProbeOptions(ctx.config.enforce));
  TraceRecorder trace;
  probe.AttachTrace(&trace);
  const StatusOr<PoolId> pool = probe.RegisterPool(0, kPmSize);
  if (!pool.ok()) {
    return;
  }
  ExecutePrefix(probe, *pool, ctx.program, ctx.prefix_len);
  if (ctx.stats != nullptr) {
    ++ctx.stats->recovery_runs;
  }
  CrashPlan plan;
  plan.crash_time = probe.stats().MaxThreadTime();
  (void)probe.InjectCrashAt(plan);
  PpoChecker checker;
  checker.require_full_history = true;
  checker.disable_invariants = ctx.config.weaken_checker;
  // Invariants 1-3 over this trace were already differentially checked on
  // the crash-free probe; the recovery leg adds exactly the invariant-4
  // obligations (replay window, no double or already-durable replay; the
  // crash model records no replay events, so these hold trivially) plus
  // the full-history demand, so only those verdicts are charged here.
  for (const PpoViolation& v : checker.Check(trace.Snapshot())) {
    if (v.invariant == 0 || v.invariant == 4) {
      AddDisagreement(ctx, DisagreementKind::kCheckerFalseAlarm,
                      "hardware recovery replay rejected by invariant " +
                          std::to_string(v.invariant) + ": " + v.detail);
    }
  }
}

void CheckPrefix(const LitmusProgram& program, const ConformanceConfig& config,
                 std::size_t prefix_len, std::vector<Disagreement>* out,
                 ConformanceStats* stats) {
  const PrefixContext ctx{program, config, prefix_len, out, stats};
  if (stats != nullptr) {
    ++stats->prefixes;
  }
  const SpecExec spec =
      Simulate(program, prefix_len, config.enforce, config.mutation);
  const std::vector<std::string> allowed = AllowedStates(spec);

  Runtime probe(ProbeOptions(config.enforce));
  TraceRecorder trace;
  analyze::PmSanitizer san;
  probe.AttachTrace(&trace);
  probe.AttachSanitizer(&san);
  const StatusOr<PoolId> pool = probe.RegisterPool(0, kPmSize);
  if (!pool.ok()) {
    AddDisagreement(ctx, DisagreementKind::kStateNotAllowed,
                    "probe pool registration failed: " +
                        pool.status().ToString());
    return;
  }
  ExecutePrefix(probe, *pool, program, prefix_len);
  san.Finish(std::max(probe.Now(0), probe.Now(1)));
  const std::vector<TraceEvent> events = trace.Snapshot();
  const TraceWitness witness = ScanWitnesses(events);

  CheckCheckerDifferential(ctx, spec, witness, events);
  CheckSanitizerDifferential(ctx, spec, witness, san);
  CheckCrashStates(ctx, allowed, events, probe.stats().MaxThreadTime(),
                   probe.space().PendingLineAddrs().size());
  if (config.check_recovery) {
    CheckRecoveryLeg(ctx);
  }
}

}  // namespace

std::vector<Disagreement> CheckProgram(const LitmusProgram& program,
                                       const ConformanceConfig& config,
                                       ConformanceStats* stats) {
  std::vector<Disagreement> out;
  if (stats != nullptr) {
    ++stats->programs;
  }
  for (std::size_t k = 1; k <= program.instrs.size(); ++k) {
    CheckPrefix(program, config, k, &out, stats);
  }
  return out;
}

std::vector<Disagreement> CheckProgramBothLegs(const LitmusProgram& program,
                                               const ConformanceConfig& config,
                                               ConformanceStats* stats) {
  std::vector<Disagreement> out;
  for (const bool enforce : {true, false}) {
    ConformanceConfig leg = config;
    leg.enforce = enforce;
    std::vector<Disagreement> found = CheckProgram(program, leg, stats);
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
  return out;
}

LitmusProgram ShrinkDisagreement(const LitmusProgram& program,
                                 const ConformanceConfig& config,
                                 DisagreementKind kind) {
  const auto reproduces = [&](const LitmusProgram& candidate) {
    for (const Disagreement& d : CheckProgram(candidate, config, nullptr)) {
      if (d.kind == kind) {
        return true;
      }
    }
    return false;
  };
  LitmusProgram current = program;
  bool progress = true;
  while (progress && current.instrs.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < current.instrs.size(); ++i) {
      LitmusProgram candidate = current;
      candidate.instrs.erase(candidate.instrs.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (reproduces(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  current.name = program.name + "-shrunk";
  return current;
}

namespace {

constexpr const char* kLitmusSchema = "litmus-repro-v1";

// The litmus-repro-v1 keys, bound to `repro`. `schema` and `weaken` stand
// in for the two keys the struct does not hold as written.
std::vector<JsonField> LitmusFields(LitmusRepro* repro, std::string* schema,
                                    std::uint64_t* weaken) {
  return {StringField("schema", schema),
          StringField("name", &repro->name),
          StringField("text", &repro->text),
          Optional(BoolField("enforce", &repro->enforce)),
          Optional(NamedField("mutation", &repro->mutation,
                              &SpecMutationNames())),
          Optional(UintField("weaken_checker", weaken)),
          NamedField("kind", &repro->kind, &DisagreementKindNames()),
          Optional(StringField("detail", &repro->detail))};
}

}  // namespace

std::string LitmusRepro::Write() const {
  LitmusRepro copy = *this;
  std::string schema = kLitmusSchema;
  std::uint64_t weaken = weaken_checker;
  JsonValue object = JsonValue::Object();
  AppendJsonFields(LitmusFields(&copy, &schema, &weaken), &object);
  return WriteFlatJsonObject(object);
}

StatusOr<LitmusRepro> LitmusRepro::Parse(std::string_view text) {
  StatusOr<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    return doc.status();
  }
  LitmusRepro repro;
  std::string schema;
  std::uint64_t weaken = 0;
  NEARPM_RETURN_IF_ERROR(ReadJsonFields(
      *doc, LitmusFields(&repro, &schema, &weaken), "litmus repro"));
  if (schema != kLitmusSchema) {
    return InvalidArgument("litmus repro: unknown schema \"" + schema + "\"");
  }
  if (repro.text.empty()) {
    return InvalidArgument("litmus repro: missing program text");
  }
  if (weaken > UINT32_MAX) {
    return InvalidArgument("litmus repro: weaken_checker must fit 32 bits");
  }
  repro.weaken_checker = static_cast<std::uint32_t>(weaken);
  return repro;
}

std::string LitmusRepro::FileName() const {
  std::string stem = name;
  for (char& c : stem) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) {
      c = '_';
    }
  }
  return stem + "-" + DisagreementKindName(kind) + ".json";
}

StatusOr<LitmusRepro> LoadLitmusRepro(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) {
    return text.status();
  }
  StatusOr<LitmusRepro> repro = LitmusRepro::Parse(*text);
  if (!repro.ok()) {
    return InvalidArgument(path + ": " + repro.status().message());
  }
  return repro;
}

StatusOr<std::string> SaveLitmusRepro(const LitmusRepro& repro,
                                      const std::string& dir) {
  const std::string path = dir + "/" + repro.FileName();
  NEARPM_RETURN_IF_ERROR(WriteTextFile(path, repro.Write()));
  return path;
}

LitmusRepro MakeRepro(const LitmusProgram& program,
                      const ConformanceConfig& config,
                      const Disagreement& disagreement) {
  LitmusRepro repro;
  repro.name = program.name;
  repro.text = program.Text();
  repro.enforce = config.enforce;
  repro.mutation = config.mutation;
  repro.weaken_checker = config.weaken_checker;
  repro.kind = disagreement.kind;
  repro.detail = disagreement.detail;
  return repro;
}

Status ReplayLitmusRepro(const LitmusRepro& repro) {
  StatusOr<LitmusProgram> parsed = LitmusProgram::Parse(repro.text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  LitmusProgram program = std::move(*parsed);
  program.name = repro.name;
  ConformanceConfig recorded;
  recorded.enforce = repro.enforce;
  recorded.mutation = repro.mutation;
  recorded.weaken_checker = repro.weaken_checker;
  bool reproduced = false;
  for (const Disagreement& d : CheckProgram(program, recorded, nullptr)) {
    if (d.kind == repro.kind) {
      reproduced = true;
      break;
    }
  }
  if (!reproduced) {
    return FailedPrecondition(
        "repro '" + repro.name + "' no longer reproduces a " +
        DisagreementKindName(repro.kind) + " disagreement");
  }
  const bool recorded_is_healthy =
      repro.mutation == SpecMutation::kNone && repro.weaken_checker == 0;
  if (!recorded_is_healthy) {
    ConformanceConfig healthy;
    healthy.enforce = repro.enforce;
    const std::vector<Disagreement> clean =
        CheckProgram(program, healthy, nullptr);
    if (!clean.empty()) {
      return FailedPrecondition(
          "repro '" + repro.name +
          "' disagrees even under the healthy configuration: " +
          clean.front().detail);
    }
  }
  return Status::Ok();
}

}  // namespace spec
}  // namespace nearpm
