// Workload tests: functional behaviour of the nine applications, the one
// driver the figures and tools share, and crash-recovery property sweeps
// driven by each workload's own structural Verify() (tree order/balance,
// chain integrity, table invariants).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/workloads/btree.h"
#include "src/workloads/workload.h"
#include "src/workloads/ycsb.h"

namespace nearpm {
namespace {

RuntimeOptions Opts(ExecMode mode) {
  RuntimeOptions o;
  o.mode = mode;
  o.pm_size = 256ull << 20;
  return o;
}

WorkloadConfig SmallConfig(Mechanism mech) {
  WorkloadConfig c;
  c.mechanism = mech;
  c.data_size = 4ull << 20;
  c.initial_keys = 200;
  c.seed = 42;
  return c;
}

// ---- Functional behaviour -----------------------------------------------------

TEST(WorkloadRegistryTest, AllNamesResolve) {
  for (const std::string& name : EvaluatedWorkloads()) {
    auto w = CreateWorkload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
  }
  EXPECT_EQ(CreateWorkload("nope"), nullptr);
  EXPECT_EQ(EvaluatedWorkloads().size(), 9u);
}

TEST(BTreeTest, InsertAndLookup) {
  Runtime rt(Opts(ExecMode::kNdpMultiDelayed));
  PoolArena arena(0);
  BTreeWorkload tree;
  ASSERT_TRUE(tree.Setup(rt, arena, SmallConfig(Mechanism::kLogging)).ok());
  ASSERT_TRUE(tree.Insert(0, 999999).ok());
  Value64 out;
  auto found = tree.Lookup(0, 999999, &out);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  const Value64 expect = ValueForKey(999999);
  EXPECT_EQ(0, memcmp(out.bytes, expect.bytes, kValueSize));
  auto missing = tree.Lookup(0, 123456789, nullptr);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);
  EXPECT_TRUE(tree.Verify().ok());
}

TEST(ZipfianTest, SkewedAndBounded) {
  ZipfianGenerator zipf(1000);
  Rng rng(3);
  std::uint64_t hits_low = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = zipf.Next(rng);
    ASSERT_LT(k, 1000u);
    hits_low += k < 10;
  }
  // Zipf 0.99: the 10 hottest keys of 1000 draw far more than 1% of accesses.
  EXPECT_GT(hits_low, 2000u);
}

TEST(YcsbGenTest, MixRespected) {
  YcsbWorkloadGen::Mix mix;
  mix.insert = 0.2;
  mix.update = 0.5;
  mix.read = 0.3;
  YcsbWorkloadGen gen(1000, mix);
  Rng rng(7);
  int inserts = 0;
  int updates = 0;
  int reads = 0;
  for (int i = 0; i < 10000; ++i) {
    switch (gen.Next(rng).kind) {
      case YcsbOp::Kind::kInsert:
        ++inserts;
        break;
      case YcsbOp::Kind::kUpdate:
        ++updates;
        break;
      case YcsbOp::Kind::kRead:
        ++reads;
        break;
    }
  }
  EXPECT_NEAR(inserts / 10000.0, 0.2, 0.03);
  EXPECT_NEAR(updates / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(reads / 10000.0, 0.3, 0.03);
}

// Every workload runs and verifies in every mechanism (no crash).
class WorkloadRunTest
    : public ::testing::TestWithParam<std::tuple<std::string, Mechanism>> {};

TEST_P(WorkloadRunTest, RunsAndVerifies) {
  const auto& [name, mech] = GetParam();
  Runtime rt(Opts(ExecMode::kNdpMultiDelayed));
  PoolArena arena(0);
  auto w = CreateWorkload(name);
  ASSERT_NE(w, nullptr);
  WorkloadConfig config = SmallConfig(mech);
  config.initial_keys = 100;
  ASSERT_TRUE(w->Setup(rt, arena, config).ok());
  Rng rng(11);
  for (int op = 0; op < 60; ++op) {
    ASSERT_TRUE(w->RunOp(0, rng).ok()) << name << " op " << op;
  }
  rt.DrainDevices(0);
  EXPECT_TRUE(w->Verify().ok()) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadRunTest,
    ::testing::Combine(::testing::ValuesIn(EvaluatedWorkloads()),
                       ::testing::Values(Mechanism::kLogging,
                                         Mechanism::kRedoLogging,
                                         Mechanism::kCheckpointing,
                                         Mechanism::kShadowPaging)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             MechanismName(std::get<1>(info.param));
    });

// ---- The shared driver ------------------------------------------------------

// Every aggregate the figures read, plus each thread's clock.
std::vector<double> StatsFingerprint(const RuntimeStats& stats, int threads) {
  std::vector<double> out = {static_cast<double>(stats.MaxThreadTime()),
                             stats.CcRegionNs(), stats.AppNs(),
                             stats.OverlapNs()};
  for (int c = 0; c < static_cast<int>(CcCategory::kCount); ++c) {
    out.push_back(stats.CategoryNs(static_cast<CcCategory>(c)));
  }
  for (int t = 0; t < threads; ++t) {
    out.push_back(static_cast<double>(stats.now(static_cast<ThreadId>(t))));
  }
  return out;
}

WorkloadRun SmallRun(const std::string& workload) {
  WorkloadRun run;
  run.workload = workload;
  run.config = SmallConfig(Mechanism::kLogging);
  run.config.threads = 2;
  run.ops = 120;
  return run;
}

// (stats at the end of setup, stats at the end) of one driven run.
std::pair<std::vector<double>, std::vector<double>> Drive(
    const WorkloadRun& run) {
  RuntimeOptions opts = Opts(ExecMode::kNdpMultiDelayed);
  opts.max_threads = run.config.threads;
  Runtime rt(opts);
  const StatusOr<RuntimeStats> at_setup = DriveWorkload(rt, run);
  EXPECT_TRUE(at_setup.ok()) << at_setup.status().ToString();
  if (!at_setup.ok()) {
    return {};
  }
  return {StatsFingerprint(*at_setup, run.config.threads),
          StatsFingerprint(rt.stats(), run.config.threads)};
}

TEST(DriveWorkloadTest, SameRunTwiceGivesIdenticalStats) {
  for (const char* name : {"hashmap", "tpcc"}) {
    const auto first = Drive(SmallRun(name));
    ASSERT_FALSE(first.first.empty()) << name;
    EXPECT_EQ(first, Drive(SmallRun(name))) << name;
    EXPECT_GT(first.second[0], first.first[0])
        << name << ": the ops must advance the clock past setup";
  }
}

TEST(DriveWorkloadTest, OpSeedSelectsTheOpStream) {
  const WorkloadRun derived = SmallRun("btree");
  const auto expected = Drive(derived);
  WorkloadRun pinned = derived;
  pinned.op_seed = derived.config.seed * 31 + 1;
  EXPECT_EQ(Drive(pinned), expected) << "unset means seed * 31 + 1";
  pinned.op_seed = 9;
  const auto other = Drive(pinned);
  EXPECT_EQ(other.first, expected.first) << "setup does not use it";
  EXPECT_NE(other.second, expected.second);
}

TEST(DriveWorkloadTest, FailuresNameTheirStage) {
  Runtime rt(Opts(ExecMode::kCpuBaseline));
  const StatusOr<RuntimeStats> unknown = DriveWorkload(rt, SmallRun("nope"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.status().message(), "unknown workload nope");

  // A pool larger than the PM space fails in Setup.
  WorkloadRun too_big = SmallRun("btree");
  too_big.config.data_size = 1ull << 30;
  const StatusOr<RuntimeStats> setup = DriveWorkload(rt, too_big);
  ASSERT_FALSE(setup.ok());
  EXPECT_NE(setup.status().code(), StatusCode::kNotFound)
      << "only an unknown name reads as NotFound";
  EXPECT_EQ(setup.status().message().rfind("setup(btree): ", 0), 0u)
      << setup.status().message();
}

// ---- Crash-recovery sweep -------------------------------------------------------

struct WorkloadCrashCase {
  std::string name;
  Mechanism mechanism;
  ExecMode mode;
  std::uint64_t seed;
};

class WorkloadCrashTest : public ::testing::TestWithParam<WorkloadCrashCase> {};

TEST_P(WorkloadCrashTest, StructureSurvivesCrash) {
  const WorkloadCrashCase& c = GetParam();
  Runtime rt(Opts(c.mode));
  PoolArena arena(0);
  auto w = CreateWorkload(c.name);
  ASSERT_NE(w, nullptr);
  WorkloadConfig config = SmallConfig(c.mechanism);
  config.initial_keys = 80;
  config.seed = c.seed;
  ASSERT_TRUE(w->Setup(rt, arena, config).ok());
  rt.DrainDevices(0);

  Rng rng(c.seed * 7919 + 13);
  const int ops = 10 + static_cast<int>(rng.NextBounded(50));
  for (int op = 0; op < ops; ++op) {
    ASSERT_TRUE(w->RunOp(0, rng).ok());
  }
  rt.InjectCrash(rng);
  w->DropVolatile();
  ASSERT_TRUE(w->Recover().ok());
  EXPECT_TRUE(w->Verify().ok())
      << c.name << "/" << MechanismName(c.mechanism) << "/"
      << ExecModeName(c.mode) << " seed=" << c.seed;

  // The recovered structure keeps working.
  for (int op = 0; op < 10; ++op) {
    ASSERT_TRUE(w->RunOp(0, rng).ok());
  }
  rt.DrainDevices(0);
  EXPECT_TRUE(w->Verify().ok());
}

std::vector<WorkloadCrashCase> WorkloadCrashCases() {
  std::vector<WorkloadCrashCase> cases;
  for (const std::string& name : EvaluatedWorkloads()) {
    for (Mechanism mech :
         {Mechanism::kLogging, Mechanism::kCheckpointing,
          Mechanism::kShadowPaging}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        cases.push_back(
            {name, mech, ExecMode::kNdpMultiDelayed, seed});
      }
      cases.push_back({name, mech, ExecMode::kCpuBaseline, 3});
      cases.push_back({name, mech, ExecMode::kNdpSingleDevice, 4});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkloadCrashTest,
                         ::testing::ValuesIn(WorkloadCrashCases()),
                         [](const auto& info) {
                           return info.param.name + "_" +
                                  std::string(MechanismName(info.param.mechanism)) +
                                  "_" + ExecModeName(info.param.mode) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace nearpm
