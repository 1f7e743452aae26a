// Crash-repro corpus: minimized failing (or once-failing) crash states of
// any scenario, persisted as flat JSON so they replay as regression tests.
//
// A repro is one header plus the keys of the scenario its "kind" names. The
// header is the same for every kind: version, kind (omitted for "bank"),
// mechanism, mode, enforce_ppo, break_recovery, seed, expect and note. Each
// scenario declares its own keys once, bound to its case, and that one
// declaration drives both reading and writing. A file with an unknown,
// missing or wrong-kind key, or a value out of its member's range, does not
// load.
//
// `expect` records the verdict the replay must reproduce:
//
//   "recoverable"  -- recovery must succeed and pass every oracle (the
//                     regression corpus: crash states that once exposed a
//                     bug and must stay fixed);
//   "violation"    -- the oracle must flag the state (teeth anchors: the
//                     Section 2.3 ablation stays *caught*, proving the
//                     fuzzer still detects real inconsistencies).
#ifndef SRC_FUZZ_REPRO_H_
#define SRC_FUZZ_REPRO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analyze/rules.h"
#include "src/common/json.h"
#include "src/common/status.h"
#include "src/core/options.h"
#include "src/fuzz/engine.h"
#include "src/pmlib/provider.h"

namespace nearpm {
namespace fuzz {

struct ReproHeader {
  std::uint64_t version = 1;
  std::string kind = "bank";  // the scenario that replays the repro
  Mechanism mechanism = Mechanism::kLogging;
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  bool enforce_ppo = true;
  bool break_recovery = false;  // fault-injected recovery (self-test repros)
  std::uint64_t seed = 1;       // the scenario's derivation seed
  std::string expect = "recoverable";
  std::string note;
};

// A scenario's half of a repro: its own keys and how to replay them.
class ScenarioRepro {
 public:
  ScenarioRepro() = default;
  ScenarioRepro(const ScenarioRepro&) = delete;
  ScenarioRepro& operator=(const ScenarioRepro&) = delete;
  virtual ~ScenarioRepro() = default;

  // Declares the scenario's own keys, bound to this object's members.
  virtual void Fields(std::vector<JsonField>* fields) = 0;
  // Completes the case from a freshly read header and checks what the key
  // kinds alone cannot (names, ranges, the inert keys of another kind).
  virtual Status Bind(const ReproHeader& header) = 0;
  // Re-runs the crash state (see ReplayRepro for the sanitizer).
  virtual CaseResult Run(analyze::PmSanitizer* sanitizer) const = 0;
  // Stable corpus file name, e.g. fuzz_<mech>_<mode>[_noppo]_s<seed>_....json
  virtual std::string FileName() const = 0;
  // The rule a recorded ablation must fire under the analyzer. A repro
  // whose scenario names one is not sound even with PPO and recovery intact.
  struct RequiredFinding {
    analyze::RuleId rule;
    const char* ablation;  // the config field that requires it
  };
  virtual std::optional<RequiredFinding> RequiredRule() const {
    return std::nullopt;
  }
};

struct CrashRepro : ReproHeader {
  std::shared_ptr<ScenarioRepro> scenario;
};

// The header of a fresh repro of `scenario`'s case under `config`.
CrashRepro MakeRepro(const char* kind, std::shared_ptr<ScenarioRepro> scenario,
                     const ScenarioConfig& config, Mechanism mechanism,
                     std::uint64_t seed, const std::string& expect,
                     const std::string& note);

// The scenario half of `repro` as its concrete type, or nullptr.
template <typename T>
const T* ScenarioOf(const CrashRepro& repro) {
  return dynamic_cast<const T*>(repro.scenario.get());
}

std::string ReproToJson(const CrashRepro& repro);
StatusOr<CrashRepro> ReproFromJson(std::string_view text);

// Writes the repro under `dir` (created when missing) as ReproFileName();
// returns the path.
StatusOr<std::string> SaveRepro(const CrashRepro& repro,
                                const std::string& dir);
StatusOr<CrashRepro> LoadRepro(const std::string& path);
std::string ReproFileName(const CrashRepro& repro);

// The one replay entry: kind -> scenario -> verdict. With a sanitizer, the
// bank scenario runs it live and serve/repl replay their per-node trace
// snapshots through it.
CaseResult ReplayRepro(const CrashRepro& repro,
                       analyze::PmSanitizer* sanitizer = nullptr);
// Whether `result` is the verdict the repro's `expect` records.
bool MatchesExpectation(const CrashRepro& repro, const CaseResult& result);

// The analyzer's corpus policy, shared by nearpm_analyze --corpus and its
// test. The replay verdict must match `expect` and must not be `harness`,
// and the replay must feed the sanitizer; a sound repro (PPO
// enforced, recovery intact, no scenario ablation) must be analyzer-clean;
// an enforce_ppo=false repro must fire at least one finding; a scenario
// ablation must fire its RequiredRule.
struct AnalyzerVerdict {
  CaseResult result;
  bool matches_expectation = false;
  std::uint64_t findings = 0;
  // "ok" when the policy holds, else "FAIL (<why>)".
  std::string policy = "ok";
};
AnalyzerVerdict AnalyzeRepro(const CrashRepro& repro,
                             analyze::PmSanitizer* sanitizer);

}  // namespace fuzz
}  // namespace nearpm

#endif  // SRC_FUZZ_REPRO_H_
