// Tests for src/repl/repl_fuzzer: single-case oracles, the systematic
// crash-subset sweep for both replication protocols, the fuzzer's teeth
// against the intent-redo and redo-persist ablations, and corpus round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/repl_fuzzer.h"
#include "src/fuzz/repro.h"

namespace nearpm {
namespace fuzz {
namespace {

using repl::ReplProtocol;
using repl::ReplProtocolName;
using repl::ReplStopPhase;

ReplFuzzConfig SmallConfig(ReplProtocol protocol) {
  ReplFuzzConfig config;
  config.groups = 2;
  config.replicas = 2;
  config.protocol = protocol;
  return config;
}

ReplFuzzCase SmallCase() {
  ReplFuzzCase c;
  c.seed = 7;
  c.warmup_ops = 4;
  c.txn_pairs = 3;
  return c;
}

TEST(ReplFuzzerTest, CleanRunPassesEveryOracle) {
  ReplFuzzer fuzzer(SmallConfig(ReplProtocol::kPrimaryBackup));
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kNone;
  const CaseResult result = fuzzer.Run(c);
  EXPECT_TRUE(result.ok()) << FailureKindName(result.failure) << ": "
                           << result.detail;
}

TEST(ReplFuzzerTest, CoordinatorCrashAfterIntentRecovers) {
  ReplFuzzer fuzzer(SmallConfig(ReplProtocol::kPrimaryBackup));
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kAfterIntent;
  c.crash_mask = ~0ull;  // whole cluster
  const CaseResult result = fuzzer.Run(c);
  EXPECT_TRUE(result.ok()) << FailureKindName(result.failure) << ": "
                           << result.detail;
}

TEST(ReplFuzzerTest, PrimaryOnlyCrashDrivesFailover) {
  // Crash only node 0 (group 0's primary): the sweep's failover leg promotes
  // the backup, which must serve every acked key.
  ReplFuzzer fuzzer(SmallConfig(ReplProtocol::kPrimaryBackup));
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kAfterReplicate;
  c.crash_mask = 0b0001;
  const CaseResult result = fuzzer.Run(c);
  EXPECT_TRUE(result.ok()) << FailureKindName(result.failure) << ": "
                           << result.detail;
}

TEST(ReplFuzzerTest, ParticipantCountMatchesSchedule) {
  ReplFuzzer fuzzer(SmallConfig(ReplProtocol::kPrimaryBackup));
  ReplFuzzCase c = SmallCase();
  const int k = fuzzer.ParticipantCount(c);
  EXPECT_GE(k, 1);
  EXPECT_LE(k, 2);
}

class ReplSweepTest : public ::testing::TestWithParam<ReplProtocol> {};

TEST_P(ReplSweepTest, SystematicCrashSubsetSweepIsClean) {
  // Every stop phase x every targetable ordinal x every non-empty node
  // subset x {all-drop, all-survive}: zero lost-committed, zero torn, zero
  // divergent replicas.
  ReplFuzzer fuzzer(SmallConfig(GetParam()));
  std::vector<Failure<ReplFuzzCase>> failures;
  const SweepStats stats = fuzzer.Systematic(/*seed=*/11, &failures);
  EXPECT_GT(stats.cases, 200u);
  EXPECT_EQ(stats.failures, 0u);
  for (std::size_t i = 0; i < failures.size() && i < 5; ++i) {
    ADD_FAILURE() << FailureKindName(failures[i].result.failure) << " at "
                  << ReplStopPhaseNames().Name(failures[i].fuzz_case.phase)
                  << " ordinal " << failures[i].fuzz_case.ordinal << " mask "
                  << failures[i].fuzz_case.crash_mask << ": "
                  << failures[i].result.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReplSweepTest,
                         ::testing::Values(ReplProtocol::kPrimaryBackup,
                                           ReplProtocol::kOneSidedRedo),
                         [](const auto& p) {
                           return std::string(ReplProtocolName(p.param));
                         });

// ---- Teeth: the fuzzer must catch the seeded ablations ----------------------

TEST(ReplFuzzerTeethTest, BrokenIntentRedoIsCaught) {
  // Recovery scrubs surviving intents without re-applying them: the crashed
  // transaction loses its all-or-nothing guarantee. Crashing the whole
  // cluster right after the coordinator intent became durable must surface
  // as a torn transaction (or a replica divergence, depending on how far
  // the apply got).
  ReplFuzzConfig config = SmallConfig(ReplProtocol::kPrimaryBackup);
  config.break_intent_redo = true;
  ReplFuzzer fuzzer(config);
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kAfterReplicate;
  c.crash_mask = ~0ull;
  const CaseResult result = fuzzer.Run(c);
  ASSERT_FALSE(result.ok()) << "the seeded bug went undetected";
  EXPECT_TRUE(result.failure == FailureKind::kTornTxn ||
              result.failure == FailureKind::kDivergentReplica)
      << FailureKindName(result.failure) << ": " << result.detail;
}

TEST(ReplFuzzerTeethTest, BrokenIntentRedoIsCaughtBySweep) {
  ReplFuzzConfig config = SmallConfig(ReplProtocol::kPrimaryBackup);
  config.break_intent_redo = true;
  ReplFuzzer fuzzer(config);
  std::vector<Failure<ReplFuzzCase>> failures;
  const SweepStats stats = fuzzer.Systematic(/*seed=*/11, &failures);
  EXPECT_GT(stats.failures, 0u) << "sweep of " << stats.cases
                                << " cases missed the seeded bug";
}

TEST(ReplFuzzerTeethTest, UnpersistedRedoRecordIsCaught) {
  // One-sided redo with the persist elided: the doorbell (and the ack)
  // races the record. The trace replay through the PM-Sanitizer must flag
  // the NPM007 hazard even on schedules where the crash happens to spare
  // the record.
  ReplFuzzConfig config = SmallConfig(ReplProtocol::kOneSidedRedo);
  config.skip_redo_persist = true;
  ReplFuzzer fuzzer(config);
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kNone;
  const CaseResult result = fuzzer.Run(c);
  ASSERT_FALSE(result.ok()) << "the seeded bug went undetected";
  EXPECT_EQ(result.failure, FailureKind::kDoorbellHazard)
      << FailureKindName(result.failure) << ": " << result.detail;
}

TEST(ReplFuzzerTeethTest, PersistedRedoHasNoDoorbellHazard) {
  ReplFuzzer fuzzer(SmallConfig(ReplProtocol::kOneSidedRedo));
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kNone;
  const CaseResult result = fuzzer.Run(c);
  EXPECT_TRUE(result.ok()) << FailureKindName(result.failure) << ": "
                           << result.detail;
}

// ---- Corpus round-trip ------------------------------------------------------

TEST(ReplCorpusTest, ReproRoundTripsThroughJson) {
  ReplFuzzConfig config = SmallConfig(ReplProtocol::kOneSidedRedo);
  config.skip_redo_persist = true;
  ReplFuzzer fuzzer(config);
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kMidApply;
  c.ordinal = 1;
  c.crash_mask = 0b0101;
  c.lines_survive = true;

  const CrashRepro repro =
      fuzzer.ToRepro(c, "violation", "unit-test round trip");
  EXPECT_EQ(repro.kind, "repl");
  const std::string json = ReproToJson(repro);
  auto parsed = ReproFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, "repl");
  EXPECT_EQ(ReproToJson(*parsed), json);
  EXPECT_NE(json.find("\"repl_protocol\": \"redo\""), std::string::npos);
  EXPECT_NE(json.find("\"repl_phase\": \"mid_apply\""), std::string::npos);
  EXPECT_EQ(parsed->expect, "violation");

  const ReplRepro* replica = ScenarioOf<ReplRepro>(*parsed);
  ASSERT_NE(replica, nullptr);
  const ReplFuzzConfig& config2 = replica->config;
  EXPECT_EQ(config2.protocol, ReplProtocol::kOneSidedRedo);
  EXPECT_TRUE(config2.skip_redo_persist);
  EXPECT_EQ(config2.groups, 2);
  EXPECT_EQ(config2.replicas, 2);

  const ReplFuzzCase* c2 = &replica->fuzz_case;
  EXPECT_EQ(c2->seed, c.seed);
  EXPECT_EQ(c2->warmup_ops, c.warmup_ops);
  EXPECT_EQ(c2->txn_pairs, c.txn_pairs);
  EXPECT_EQ(c2->phase, ReplStopPhase::kMidApply);
  EXPECT_EQ(c2->ordinal, 1);
  EXPECT_EQ(c2->crash_mask, 0b0101u);
  EXPECT_TRUE(c2->lines_survive);
}

TEST(ReplCorpusTest, ReplayedReproReproducesTheVerdict) {
  // The round-tripped repro of a teeth case must still fail when replayed
  // through the corpus path, and its healthy twin must still pass.
  ReplFuzzConfig broken = SmallConfig(ReplProtocol::kPrimaryBackup);
  broken.break_intent_redo = true;
  ReplFuzzer bad_fuzzer(broken);
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kAfterReplicate;
  c.crash_mask = ~0ull;

  const CrashRepro repro = bad_fuzzer.ToRepro(c, "violation", "teeth");
  auto parsed = ReproFromJson(ReproToJson(repro));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(ReplayRepro(*parsed).ok());
  const ReplRepro* replica = ScenarioOf<ReplRepro>(*parsed);
  ASSERT_NE(replica, nullptr);
  const ReplFuzzCase* replay_case = &replica->fuzz_case;

  ReplFuzzer healthy(SmallConfig(ReplProtocol::kPrimaryBackup));
  EXPECT_TRUE(healthy.Run(*replay_case).ok());
}

TEST(ReplCorpusTest, FileNameEncodesTheSchedule) {
  ReplFuzzer fuzzer(SmallConfig(ReplProtocol::kPrimaryBackup));
  ReplFuzzCase c = SmallCase();
  c.phase = ReplStopPhase::kAfterIntent;
  c.crash_mask = 3;
  const CrashRepro repro = fuzzer.ToRepro(c, "recoverable", "");
  const std::string name = ReproFileName(repro);
  EXPECT_NE(name.find("repl_pb"), std::string::npos) << name;
  EXPECT_NE(name.find("after_intent"), std::string::npos) << name;
  EXPECT_NE(name.find("m3"), std::string::npos) << name;
}

TEST(ReplFuzzerTest, PhaseNamesRoundTrip) {
  const NameTable<ReplStopPhase>& names = ReplStopPhaseNames();
  for (ReplStopPhase phase :
       {ReplStopPhase::kNone, ReplStopPhase::kAfterIntent,
        ReplStopPhase::kMidReplicate, ReplStopPhase::kAfterReplicate,
        ReplStopPhase::kMidApply, ReplStopPhase::kAfterApply,
        ReplStopPhase::kAfterSync}) {
    const auto parsed = names.Parse(names.Name(phase));
    ASSERT_TRUE(parsed.has_value()) << names.Name(phase);
    EXPECT_EQ(*parsed, phase);
  }
  EXPECT_FALSE(names.Parse("mid_warp").has_value());
}

}  // namespace
}  // namespace fuzz
}  // namespace nearpm
