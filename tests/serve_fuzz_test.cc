// Tests for the serve-layer crash-state fuzzer: the systematic sweep stays
// green on the real protocol, each fault-injection ablation is caught (the
// oracle has teeth), and serve repros round-trip through the corpus format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fuzz/crash_fuzzer.h"
#include "src/fuzz/repro.h"
#include "src/fuzz/serve_fuzzer.h"

namespace nearpm {
namespace fuzz {
namespace {

using serve::TxnStopPhase;

// Keep unit-test sweeps quick: "right now" plus a few enumerated offsets per
// stop point is plenty to cover the protocol (the CLI runs the deep sweeps).
constexpr std::size_t kTestCandidates = 4;

TEST(ServeFuzzerTest, SystematicSweepIsGreen) {
  ServeFuzzConfig config;
  ServeFuzzer fuzzer(config);
  std::vector<Failure<ServeFuzzCase>> failures;
  const SweepStats stats =
      fuzzer.Systematic(/*seed=*/1, kTestCandidates, &failures);
  EXPECT_GT(stats.cases, 0u);
  std::string detail;
  for (const Failure<ServeFuzzCase>& f : failures) {
    detail += std::string(FailureKindName(f.result.failure)) + ": " +
              f.result.detail + "\n";
  }
  EXPECT_EQ(stats.failures, 0u) << detail;
}

TEST(ServeFuzzerTest, CrashBetweenFirstAndLastLocalCompleteRecovers) {
  // The tentpole scenario: the power fails after the first participant
  // signalled local-complete but before the last one did. Recovery must make
  // the MultiPut all-or-nothing (here: all, since the intent is durable).
  ServeFuzzConfig config;
  ServeFuzzer fuzzer(config);
  ServeFuzzCase c;
  c.seed = 1;  // seed 1 derives a 2-participant MultiPut
  ASSERT_GE(fuzzer.ParticipantCount(c), 2);
  c.phase = TxnStopPhase::kAfterApply;
  c.apply_ordinal = 0;
  for (const bool survive : {false, true}) {
    c.lines_survive = survive;
    const CaseResult r = fuzzer.Run(c);
    EXPECT_TRUE(r.ok()) << FailureKindName(r.failure) << ": " << r.detail;
  }
}

TEST(ServeFuzzerTest, CatchesBrokenTxnRedo) {
  ServeFuzzConfig config;
  config.break_txn_redo = true;
  ServeFuzzer fuzzer(config);
  std::vector<Failure<ServeFuzzCase>> failures;
  const SweepStats stats =
      fuzzer.Systematic(/*seed=*/1, kTestCandidates, &failures);
  EXPECT_GT(stats.failures, 0u)
      << "scrubbing intents without redo must tear the MultiPut";
  bool saw_torn_txn = false;
  for (const Failure<ServeFuzzCase>& f : failures) {
    saw_torn_txn |= f.result.failure == FailureKind::kTornTxn;
  }
  EXPECT_TRUE(saw_torn_txn);
}

TEST(ServeFuzzerTest, CatchesSkippedRecoveryReplay) {
  ServeFuzzConfig config;
  config.break_recovery = true;
  ServeFuzzer fuzzer(config);
  std::vector<Failure<ServeFuzzCase>> failures;
  const SweepStats stats =
      fuzzer.Systematic(/*seed=*/1, kTestCandidates, &failures);
  EXPECT_GT(stats.failures, 0u)
      << "skipping the recovery replay must leave the open put durable";
  bool saw_uncommitted = false;
  for (const Failure<ServeFuzzCase>& f : failures) {
    saw_uncommitted |=
        f.result.failure == FailureKind::kUncommittedDurable;
  }
  EXPECT_TRUE(saw_uncommitted);
}

TEST(ServeFuzzerTest, CatchesDisabledPpo) {
  ServeFuzzConfig config;
  config.enforce_ppo = false;
  ServeFuzzer fuzzer(config);
  std::vector<Failure<ServeFuzzCase>> failures;
  const SweepStats stats =
      fuzzer.Systematic(/*seed=*/1, kTestCandidates, &failures);
  EXPECT_GT(stats.failures, 0u)
      << "the naive offload must violate the Section 4 invariants";
  bool saw_ppo = false;
  for (const Failure<ServeFuzzCase>& f : failures) {
    saw_ppo |= f.result.failure == FailureKind::kPpoViolation;
  }
  EXPECT_TRUE(saw_ppo);
}

TEST(ServeFuzzerTest, ReproRoundTripsThroughCorpusFormat) {
  ServeFuzzConfig config;
  config.shards = 3;
  config.break_recovery = true;
  ServeFuzzer fuzzer(config);

  ServeFuzzCase c;
  c.seed = 9;
  c.warmup_ops = 5;
  c.txn_pairs = 3;
  c.phase = TxnStopPhase::kMidApply;
  c.apply_ordinal = 1;
  c.crash_offset = 321;
  c.lines_survive = true;

  const CrashRepro repro = fuzzer.ToRepro(c, "violation", "unit test");
  const std::string json = ReproToJson(repro);
  auto parsed = ReproFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, "serve");
  EXPECT_EQ(ReproToJson(*parsed), json);

  const ServeRepro* serve = ScenarioOf<ServeRepro>(*parsed);
  ASSERT_NE(serve, nullptr);
  const ServeFuzzConfig& config2 = serve->config;
  EXPECT_EQ(config2.shards, config.shards);
  EXPECT_EQ(config2.mode, config.mode);
  EXPECT_EQ(config2.enforce_ppo, config.enforce_ppo);
  EXPECT_EQ(config2.break_recovery, config.break_recovery);
  EXPECT_EQ(config2.break_txn_redo, config.break_txn_redo);

  const ServeFuzzCase* c2 = &serve->fuzz_case;
  EXPECT_EQ(c2->seed, c.seed);
  EXPECT_EQ(c2->warmup_ops, c.warmup_ops);
  EXPECT_EQ(c2->txn_pairs, c.txn_pairs);
  EXPECT_EQ(c2->phase, c.phase);
  EXPECT_EQ(c2->apply_ordinal, c.apply_ordinal);
  EXPECT_EQ(c2->crash_offset, c.crash_offset);
  EXPECT_EQ(c2->lines_survive, c.lines_survive);

  const std::string name = ReproFileName(repro);
  EXPECT_EQ(name, "serve_nearpm_md_skiprec_s9_mid_apply1_surv.json");
}

TEST(ServeFuzzerTest, BankReproFilesStayByteIdentical) {
  // The serve scenario must not disturb the bank corpus format: a repro
  // without a "kind" field parses as bank and re-serializes identically.
  FuzzCase c;
  c.seed = 3;
  c.total_ops = 6;
  c.crash_step = 2;
  const CrashRepro repro = CrashFuzzer(FuzzConfig{}).ToRepro(c, "recoverable",
                                                             "");
  const std::string json = ReproToJson(repro);
  EXPECT_EQ(json.find("serve"), std::string::npos);
  auto parsed = ReproFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, "bank");
  EXPECT_EQ(ReproToJson(*parsed), json);
}

TEST(ServeFuzzerTest, PhaseNamesRoundTrip) {
  const NameTable<TxnStopPhase>& names = TxnStopPhaseNames();
  for (TxnStopPhase phase :
       {TxnStopPhase::kNone, TxnStopPhase::kAfterIntent,
        TxnStopPhase::kMidApply, TxnStopPhase::kAfterApply,
        TxnStopPhase::kAfterSync}) {
    const auto parsed = names.Parse(names.Name(phase));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, phase);
  }
  EXPECT_FALSE(names.Parse("bogus").has_value());
}

}  // namespace
}  // namespace fuzz
}  // namespace nearpm
