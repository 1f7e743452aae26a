// Tests for the crash-state fuzzer itself: the sweep stays green on the
// sound configurations, replay is bit-for-bit deterministic, and -- the
// teeth check -- both known ways to break the machine (the Section 2.3
// no-PPO ablation and a fault-injected hardware recovery) are caught and
// shrink to small repros.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fuzz/crash_fuzzer.h"
#include "src/fuzz/repro.h"

namespace nearpm {
namespace fuzz {
namespace {

std::string FirstFailureDetail(const std::vector<Failure<FuzzCase>>& failures) {
  if (failures.empty()) {
    return "(no failures)";
  }
  const Failure<FuzzCase>& f = failures.front();
  return std::string(FailureKindName(f.result.failure)) + " at seed=" +
         std::to_string(f.fuzz_case.seed) + " step=" +
         std::to_string(f.fuzz_case.crash_step) +
         (f.fuzz_case.mid_op ? "m" : "c") + " t=" +
         std::to_string(f.fuzz_case.crash_time) + ": " + f.result.detail;
}

struct SweepCase {
  Mechanism mechanism;
  ExecMode mode;
};

class FuzzGreenSweepTest : public ::testing::TestWithParam<SweepCase> {};

// With PPO enforced every mechanism/mode pair must survive every sampled
// crash state: all oracles green, across random instants and masks.
TEST_P(FuzzGreenSweepTest, RandomSweepStaysGreen) {
  FuzzConfig config;
  config.mechanism = GetParam().mechanism;
  config.mode = GetParam().mode;
  CrashFuzzer fuzzer(config);
  std::vector<Failure<FuzzCase>> failures;
  const SweepStats stats = fuzzer.RandomSweep(1, 5, 2, &failures);
  EXPECT_EQ(stats.cases, 10u);
  EXPECT_EQ(stats.failures, 0u) << FirstFailureDetail(failures);
}

std::vector<SweepCase> AllSweepCases() {
  std::vector<SweepCase> cases;
  for (Mechanism mech :
       {Mechanism::kLogging, Mechanism::kRedoLogging,
        Mechanism::kCheckpointing, Mechanism::kShadowPaging}) {
    for (ExecMode mode :
         {ExecMode::kCpuBaseline, ExecMode::kNdpSingleDevice,
          ExecMode::kNdpMultiSwSync, ExecMode::kNdpMultiDelayed}) {
      cases.push_back(SweepCase{mech, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, FuzzGreenSweepTest,
                         ::testing::ValuesIn(AllSweepCases()),
                         [](const auto& sweep_info) {
                           return std::string(
                                      MechanismName(sweep_info.param.mechanism)) +
                                  "_" + ExecModeName(sweep_info.param.mode);
                         });

// Systematic mode enumerates every crash instant the trace exposes; the
// delayed-sync multi-device configuration is the adversarial one.
TEST(FuzzSystematicTest, SystematicSweepStaysGreen) {
  FuzzConfig config;
  config.mechanism = Mechanism::kLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  CrashFuzzer fuzzer(config);
  std::vector<Failure<FuzzCase>> failures;
  const SweepStats stats = fuzzer.Systematic(1, 4, 12, &failures);
  EXPECT_GT(stats.cases, 0u);
  EXPECT_EQ(stats.failures, 0u) << FirstFailureDetail(failures);
}

// --replay=seed:case must reproduce a sweep case bit-for-bit.
TEST(FuzzReplayTest, SweepCaseDerivationIsDeterministic) {
  FuzzConfig config;
  config.mechanism = Mechanism::kRedoLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  CrashFuzzer fuzzer(config);
  const FuzzCase a = fuzzer.BuildSweepCase(7, 3);
  const FuzzCase b = fuzzer.BuildSweepCase(7, 3);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.crash_step, b.crash_step);
  EXPECT_EQ(a.mid_op, b.mid_op);
  EXPECT_EQ(a.crash_time, b.crash_time);
  EXPECT_EQ(a.line_survival, b.line_survival);

  RecoveredPrefix pa;
  RecoveredPrefix pb;
  const CaseResult ra = fuzzer.Run(a, &pa);
  const CaseResult rb = fuzzer.Run(b, &pb);
  ASSERT_TRUE(ra.ok()) << FailureKindName(ra.failure) << ": " << ra.detail;
  EXPECT_EQ(pa.committed, a.crash_step + (a.mid_op ? 0 : 1));
  EXPECT_EQ(ra.failure, rb.failure);
  EXPECT_EQ(pa.matched, pb.matched);
  EXPECT_EQ(pa.committed, pb.committed);
}

// The Section 2.3 ablation: without PPO the differential oracle must flag
// at least one crash state (the in-flight undo log is lost while the
// in-place update survives), and the failure must shrink while staying a
// failure.
TEST(FuzzTeethTest, PpoAblationIsCaught) {
  FuzzConfig config;
  config.mechanism = Mechanism::kLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  config.enforce_ppo = false;
  CrashFuzzer fuzzer(config);

  std::vector<Failure<FuzzCase>> failures;
  for (std::uint64_t seed = 1; seed <= 6 && failures.empty(); ++seed) {
    fuzzer.Systematic(seed, 6, 16, &failures);
  }
  ASSERT_FALSE(failures.empty())
      << "the no-PPO ablation produced no oracle failure";

  CaseResult min_result;
  const FuzzCase minimal = fuzzer.Shrink(failures.front().fuzz_case,
                                         &min_result);
  EXPECT_FALSE(min_result.ok());
  EXPECT_LE(minimal.crash_step, failures.front().fuzz_case.crash_step);
  EXPECT_LE(minimal.total_ops, failures.front().fuzz_case.total_ops);
}

// Fault injection: with the hardware recovery's frontier replay disabled
// (skip_recovery_replay), a crash between two deferred cross-device log
// invalidations rolls back an already-committed operation while a later one
// stays applied -- a non-prefix state the differential oracle must catch.
// The acceptance bar: the shrunk repro is at most 10 operations long, and
// the very same crash plan passes once the recovery is intact again.
TEST(FuzzTeethTest, BrokenRecoveryIsCaughtAndShrinks) {
  FuzzConfig config;
  config.mechanism = Mechanism::kLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  config.break_recovery = true;
  CrashFuzzer fuzzer(config);

  std::vector<Failure<FuzzCase>> failures;
  for (std::uint64_t seed = 1; seed <= 8 && failures.empty(); ++seed) {
    fuzzer.Systematic(seed, 8, 16, &failures);
  }
  ASSERT_FALSE(failures.empty())
      << "the broken hardware recovery went undetected";

  CaseResult min_result;
  const FuzzCase minimal = fuzzer.Shrink(failures.front().fuzz_case,
                                         &min_result);
  EXPECT_FALSE(min_result.ok());
  EXPECT_LE(minimal.total_ops, 10u) << "shrinking left a large repro";

  // Same schedule, same crash plan, recovery fixed: must pass every oracle.
  FuzzConfig fixed = config;
  fixed.break_recovery = false;
  const CaseResult healthy = CrashFuzzer(fixed).Run(minimal);
  EXPECT_TRUE(healthy.ok())
      << FailureKindName(healthy.failure) << ": " << healthy.detail;
}

// Corpus round trip: case -> repro -> JSON -> repro -> case is lossless.
TEST(FuzzCorpusRoundTripTest, JsonRoundTripIsLossless) {
  FuzzConfig config;
  config.mechanism = Mechanism::kShadowPaging;
  config.mode = ExecMode::kNdpMultiSwSync;
  config.enforce_ppo = false;
  CrashFuzzer fuzzer(config);

  FuzzCase c;
  c.seed = 42;
  c.total_ops = 7;
  c.crash_step = 4;
  c.mid_op = true;
  c.crash_time = 123456;
  c.line_survival = {true, false, true};

  const CrashRepro repro = fuzzer.ToRepro(c, "violation", "round trip");
  const std::string json = ReproToJson(repro);
  auto parsed = ReproFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, "bank");
  EXPECT_EQ(json.find("\"kind\""), std::string::npos)
      << "bank repros leave the kind out";
  EXPECT_EQ(ReproToJson(*parsed), json);
  EXPECT_EQ(parsed->mechanism, Mechanism::kShadowPaging);
  EXPECT_EQ(parsed->mode, ExecMode::kNdpMultiSwSync);
  EXPECT_FALSE(parsed->enforce_ppo);
  EXPECT_FALSE(parsed->break_recovery);
  EXPECT_EQ(parsed->expect, "violation");
  EXPECT_EQ(parsed->note, "round trip");

  const BankRepro* bank = ScenarioOf<BankRepro>(*parsed);
  ASSERT_NE(bank, nullptr);
  EXPECT_EQ(bank->config.mechanism, Mechanism::kShadowPaging);
  EXPECT_FALSE(bank->config.enforce_ppo);
  const FuzzCase& back = bank->fuzz_case;
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.total_ops, c.total_ops);
  EXPECT_EQ(back.crash_step, c.crash_step);
  EXPECT_EQ(back.mid_op, c.mid_op);
  EXPECT_EQ(back.crash_time, c.crash_time);
  EXPECT_EQ(back.line_survival, c.line_survival);
}

}  // namespace
}  // namespace fuzz
}  // namespace nearpm
