// Replays every minimized crash repro committed under tests/fuzz_corpus/ as
// an individual test case. Repros with expect="recoverable" are regression
// anchors (a crash state that must keep recovering cleanly); repros with
// expect="violation" are teeth anchors (states the oracle must keep
// flagging, e.g. the Section 2.3 ablation).
//
// NEARPM_FUZZ_CORPUS_DIR is injected by the build (tests/CMakeLists.txt)
// and points at the source-tree corpus directory.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analyze/sanitizer.h"
#include "src/common/files.h"
#include "src/fuzz/repl_fuzzer.h"
#include "src/fuzz/repro.h"
#include "src/fuzz/serve_fuzzer.h"

namespace nearpm {
namespace fuzz {
namespace {

std::vector<std::string> CorpusFiles() {
  return ListCorpus(NEARPM_FUZZ_CORPUS_DIR);
}

TEST(FuzzCorpusTest, CorpusIsPresent) {
  EXPECT_FALSE(CorpusFiles().empty())
      << "no repro files under " << NEARPM_FUZZ_CORPUS_DIR;
}

class FuzzCorpusReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCorpusReplayTest, ReplayMatchesExpectation) {
  auto repro = LoadRepro(GetParam());
  ASSERT_TRUE(repro.ok()) << repro.status().ToString();
  const CaseResult r = ReplayRepro(*repro);
  if (repro->expect == "violation") {
    EXPECT_FALSE(r.ok())
        << "a once-flagged crash state passed the oracle; if the machine "
           "became stricter on purpose, refresh this repro ("
        << GetParam() << ")";
  } else {
    EXPECT_TRUE(r.ok()) << FailureKindName(r.failure) << ": " << r.detail
                        << " (" << GetParam() << ")";
  }
}

// The rule-engine policy nearpm_analyze --corpus enforces (AnalyzeRepro),
// applied to every committed repro: bank repros run with the sanitizer
// attached live, serve-/repl-kind repros replay their per-node trace
// snapshots through it.
class CorpusAnalyzerPolicyTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(CorpusAnalyzerPolicyTest, TraceReplayMatchesPolicy) {
  auto repro = LoadRepro(GetParam());
  ASSERT_TRUE(repro.ok()) << repro.status().ToString();
  analyze::PmSanitizer san;
  const AnalyzerVerdict verdict = AnalyzeRepro(*repro, &san);
  EXPECT_TRUE(verdict.matches_expectation)
      << FailureKindName(verdict.result.failure) << ": "
      << verdict.result.detail;
  EXPECT_EQ(verdict.policy, "ok") << san.sink().RenderText();
}

// The policy passes nothing vacuously. A serve repro whose prefix cannot
// run (no transaction pairs) and a repl repro whose crash mask selects no
// node both end in a harness verdict before any trace reaches the
// sanitizer; recorded as expect=violation they match their expectation,
// and the policy must still fail them.
TEST(AnalyzerPolicyTest, HarnessVerdictFailsThePolicy) {
  ServeFuzzCase serve_case;
  serve_case.txn_pairs = 0;
  ReplFuzzCase repl_case;
  repl_case.crash_mask = 0;
  const CrashRepro repros[] = {
      ServeFuzzer(ServeFuzzConfig{}).ToRepro(serve_case, "violation", ""),
      ReplFuzzer(ReplFuzzConfig{}).ToRepro(repl_case, "violation", "")};
  for (const CrashRepro& repro : repros) {
    analyze::PmSanitizer san;
    const AnalyzerVerdict verdict = AnalyzeRepro(repro, &san);
    EXPECT_EQ(verdict.result.failure, FailureKind::kHarness) << repro.kind;
    EXPECT_TRUE(verdict.matches_expectation) << repro.kind;
    EXPECT_EQ(verdict.policy.rfind("FAIL (harness: ", 0), 0u)
        << repro.kind << ": " << verdict.policy;
  }
}

// A scenario that reports a violation without replaying any trace through
// the sanitizer.
class SilentScenario final : public ScenarioRepro {
 public:
  void Fields(std::vector<JsonField>* /*fields*/) override {}
  Status Bind(const ReproHeader& /*header*/) override { return Status::Ok(); }
  CaseResult Run(analyze::PmSanitizer* /*sanitizer*/) const override {
    return Fail(FailureKind::kTornTxn, "torn");
  }
  std::string FileName() const override { return "silent.json"; }
};

TEST(AnalyzerPolicyTest, ReplayThatFedTheSanitizerNothingFails) {
  CrashRepro repro;
  repro.kind = "silent";
  repro.expect = "violation";
  repro.scenario = std::make_shared<SilentScenario>();
  analyze::PmSanitizer san;
  const AnalyzerVerdict verdict = AnalyzeRepro(repro, &san);
  EXPECT_TRUE(verdict.matches_expectation);
  EXPECT_EQ(verdict.policy, "FAIL (the replay fed the sanitizer no trace)");
}

std::string TestNameForPath(const std::string& path) {
  // Strip the directory and sanitize for gtest (alphanumerics only).
  std::string name = path.substr(path.find_last_of('/') + 1);
  for (char& ch : name) {
    if ((ch < 'a' || ch > 'z') && (ch < 'A' || ch > 'Z') &&
        (ch < '0' || ch > '9')) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzCorpusReplayTest,
                         ::testing::ValuesIn(CorpusFiles()),
                         [](const auto& corpus_info) {
                           return TestNameForPath(corpus_info.param);
                         });

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusAnalyzerPolicyTest,
                         ::testing::ValuesIn(CorpusFiles()),
                         [](const auto& corpus_info) {
                           return TestNameForPath(corpus_info.param);
                         });

}  // namespace
}  // namespace fuzz
}  // namespace nearpm
