#include "src/fuzz/repro.h"

#include <utility>

#include "src/analyze/sanitizer.h"
#include "src/common/files.h"
#include "src/fuzz/crash_fuzzer.h"
#include "src/fuzz/repl_fuzzer.h"
#include "src/fuzz/serve_fuzzer.h"

namespace nearpm {
namespace fuzz {
namespace {

// Sanitizer hook calls so far (each kind of hook counts once per call).
std::uint64_t HookCalls(const analyze::PmSanitizer& san) {
  const analyze::PmSanitizer::Stats& s = san.stats();
  return s.writes + s.reads + s.flushes + s.fences + s.ndp_commands +
         s.retires;
}

// The kind -> scenario table: the one place that names every scenario.
std::shared_ptr<ScenarioRepro> NewScenario(std::string_view kind) {
  if (kind == BankRepro::kKind) {
    return std::make_shared<BankRepro>();
  }
  if (kind == ServeRepro::kKind) {
    return std::make_shared<ServeRepro>();
  }
  if (kind == ReplRepro::kKind) {
    return std::make_shared<ReplRepro>();
  }
  return nullptr;
}

std::vector<JsonField> Fields(CrashRepro* repro) {
  std::vector<JsonField> fields = {
      UintField("version", &repro->version),
      OptionalStringField("kind", &repro->kind, BankRepro::kKind),
      NamedField("mechanism", &repro->mechanism, &MechanismNames()),
      NamedField("mode", &repro->mode, &ExecModeNames()),
      BoolField("enforce_ppo", &repro->enforce_ppo),
      BoolField("break_recovery", &repro->break_recovery),
      UintField("seed", &repro->seed),
      StringField("expect", &repro->expect),
      OptionalStringField("note", &repro->note, ""),
  };
  repro->scenario->Fields(&fields);
  return fields;
}

}  // namespace

CrashRepro MakeRepro(const char* kind, std::shared_ptr<ScenarioRepro> scenario,
                     const ScenarioConfig& config, Mechanism mechanism,
                     std::uint64_t seed, const std::string& expect,
                     const std::string& note) {
  CrashRepro repro;
  repro.kind = kind;
  repro.mechanism = mechanism;
  repro.mode = config.mode;
  repro.enforce_ppo = config.enforce_ppo;
  repro.break_recovery = config.break_recovery;
  repro.seed = seed;
  repro.expect = expect;
  repro.note = note;
  repro.scenario = std::move(scenario);
  return repro;
}

std::string ReproToJson(const CrashRepro& repro) {
  CrashRepro copy = repro;
  JsonValue object = JsonValue::Object();
  AppendJsonFields(Fields(&copy), &object);
  return WriteFlatJsonObject(object);
}

StatusOr<CrashRepro> ReproFromJson(std::string_view text) {
  StatusOr<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    return doc.status();
  }
  // The kind picks the scenario whose keys the rest of the object must
  // match; a non-string kind fails below as a wrong-kind key.
  CrashRepro repro;
  if (const JsonValue* kind = doc->Find("kind");
      kind != nullptr && kind->kind == JsonValue::Kind::kString) {
    repro.kind = kind->str;
  }
  repro.scenario = NewScenario(repro.kind);
  if (repro.scenario == nullptr) {
    return InvalidArgument("unknown repro kind \"" + repro.kind + "\"");
  }
  NEARPM_RETURN_IF_ERROR(ReadJsonFields(*doc, Fields(&repro), "repro"));
  if (repro.version != 1) {
    return InvalidArgument("unsupported repro version " +
                           std::to_string(repro.version));
  }
  if (repro.expect != "recoverable" && repro.expect != "violation") {
    return InvalidArgument("expect must be \"recoverable\" or \"violation\"");
  }
  NEARPM_RETURN_IF_ERROR(repro.scenario->Bind(repro));
  return repro;
}

StatusOr<std::string> SaveRepro(const CrashRepro& repro,
                                const std::string& dir) {
  const std::string path = dir + "/" + ReproFileName(repro);
  NEARPM_RETURN_IF_ERROR(WriteTextFile(path, ReproToJson(repro)));
  return path;
}

StatusOr<CrashRepro> LoadRepro(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) {
    return text.status();
  }
  auto repro = ReproFromJson(*text);
  if (!repro.ok()) {
    return InvalidArgument(path + ": " + repro.status().ToString());
  }
  return repro;
}

std::string ReproFileName(const CrashRepro& repro) {
  return repro.scenario->FileName();
}

CaseResult ReplayRepro(const CrashRepro& repro,
                       analyze::PmSanitizer* sanitizer) {
  return repro.scenario->Run(sanitizer);
}

bool MatchesExpectation(const CrashRepro& repro, const CaseResult& result) {
  return (repro.expect == "violation") != result.ok();
}

AnalyzerVerdict AnalyzeRepro(const CrashRepro& repro,
                             analyze::PmSanitizer* sanitizer) {
  AnalyzerVerdict verdict;
  const std::uint64_t hooks_before = HookCalls(*sanitizer);
  verdict.result = ReplayRepro(repro, sanitizer);
  verdict.matches_expectation = MatchesExpectation(repro, verdict.result);
  verdict.findings = sanitizer->sink().total_unsuppressed();
  const std::optional<ScenarioRepro::RequiredFinding> required =
      repro.scenario->RequiredRule();
  const bool sound = repro.enforce_ppo && !repro.break_recovery && !required;
  // A harness failure, or a replay that never fed the sanitizer, says
  // nothing about the crash state: a clean sink would pass vacuously.
  if (verdict.result.failure == FailureKind::kHarness) {
    verdict.policy = "FAIL (" + verdict.result.detail + ")";
  } else if (HookCalls(*sanitizer) == hooks_before) {
    verdict.policy = "FAIL (the replay fed the sanitizer no trace)";
  } else if (sound && verdict.findings > 0) {
    verdict.policy = "FAIL (findings on a sound repro)";
  } else if (!repro.enforce_ppo && verdict.findings == 0) {
    verdict.policy = "FAIL (no finding on an enforce_ppo=false repro)";
  } else if (required && sanitizer->sink().count(required->rule) == 0) {
    verdict.policy = std::string("FAIL (no ") +
                     analyze::RuleIdString(required->rule) + " on a " +
                     required->ablation + " repro)";
  }
  return verdict;
}

}  // namespace fuzz
}  // namespace nearpm
