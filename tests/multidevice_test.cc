// Multi-device and platform-configuration sweeps: device counts, interleave
// granularities, unit counts, and multithreaded operation all preserve the
// crash-consistency invariants; the PPO ablation breaks them.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace {

struct PlatformCase {
  int devices;
  std::uint64_t stripe;
  int units;
  std::uint64_t seed;
};

class PlatformSweepTest : public ::testing::TestWithParam<PlatformCase> {};

// The bank-transfer crash property holds on every platform shape (PPO is
// defined for any number of interleaved devices -- Section 9, Scalability).
TEST_P(PlatformSweepTest, CrashConsistentOnAnyPlatform) {
  const PlatformCase& pc = GetParam();
  RuntimeOptions opts;
  opts.mode = pc.devices == 1 ? ExecMode::kNdpSingleDevice
                              : ExecMode::kNdpMultiDelayed;
  opts.num_devices = pc.devices;
  opts.interleave_stripe = pc.stripe;
  opts.hw.units_per_device = pc.units;
  opts.pm_size = 256ull << 20;
  Runtime rt(opts);
  PoolArena arena;

  auto workload = CreateWorkload("hashmap");
  WorkloadConfig config;
  config.mechanism = Mechanism::kLogging;
  config.data_size = 4ull << 20;
  config.initial_keys = 60;
  config.seed = pc.seed;
  ASSERT_TRUE(workload->Setup(rt, arena, config).ok());
  rt.DrainDevices(0);

  Rng rng(pc.seed * 101 + 7);
  const int ops = 20 + static_cast<int>(rng.NextBounded(40));
  for (int op = 0; op < ops; ++op) {
    ASSERT_TRUE(workload->RunOp(0, rng).ok());
  }
  rt.InjectCrash(rng);
  workload->DropVolatile();
  ASSERT_TRUE(workload->Recover().ok());
  EXPECT_TRUE(workload->Verify().ok())
      << pc.devices << " devices, stripe " << pc.stripe << ", " << pc.units
      << " units, seed " << pc.seed;
}

std::vector<PlatformCase> PlatformCases() {
  std::vector<PlatformCase> cases;
  for (int devices : {1, 2, 4}) {
    for (std::uint64_t stripe : {256ull, 1024ull, 4096ull}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        cases.push_back(PlatformCase{devices, stripe, 4, seed});
      }
    }
  }
  // Unit-count corners.
  cases.push_back(PlatformCase{2, 256, 1, 3});
  cases.push_back(PlatformCase{2, 256, 8, 3});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlatformSweepTest,
                         ::testing::ValuesIn(PlatformCases()),
                         [](const auto& p) {
                           return "d" + std::to_string(p.param.devices) +
                                  "_s" + std::to_string(p.param.stripe) +
                                  "_u" + std::to_string(p.param.units) +
                                  "_r" + std::to_string(p.param.seed);
                         });

// ---- Multithreaded crash consistency -------------------------------------------

TEST(MultithreadCrashTest, SharedPoolLoggingSurvives) {
  RuntimeOptions opts;
  opts.mode = ExecMode::kNdpMultiDelayed;
  opts.pm_size = 256ull << 20;
  Runtime rt(opts);
  PoolArena arena;

  auto workload = CreateWorkload("redis");  // shared pool across threads
  WorkloadConfig config;
  config.mechanism = Mechanism::kLogging;
  config.threads = 4;
  config.data_size = 4ull << 20;
  config.initial_keys = 50;
  ASSERT_TRUE(workload->Setup(rt, arena, config).ok());
  for (int t = 0; t < 4; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }

  Rng rng(77);
  for (int op = 0; op < 120; ++op) {
    ASSERT_TRUE(workload->RunOp(static_cast<ThreadId>(op % 4), rng).ok());
  }
  rt.InjectCrash(rng);
  workload->DropVolatile();
  ASSERT_TRUE(workload->Recover().ok());
  EXPECT_TRUE(workload->Verify().ok());
}

TEST(MultithreadCrashTest, PerThreadPoolsRecoverIndependently) {
  RuntimeOptions opts;
  opts.mode = ExecMode::kNdpMultiDelayed;
  opts.pm_size = 256ull << 20;
  Runtime rt(opts);
  PoolArena arena;

  auto workload = CreateWorkload("memcached");  // pool per thread
  WorkloadConfig config;
  config.mechanism = Mechanism::kLogging;
  config.threads = 3;
  config.data_size = 4ull << 20;
  config.initial_keys = 40;
  ASSERT_TRUE(workload->Setup(rt, arena, config).ok());
  for (int t = 0; t < 3; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }
  Rng rng(79);
  for (int op = 0; op < 90; ++op) {
    ASSERT_TRUE(workload->RunOp(static_cast<ThreadId>(op % 3), rng).ok());
  }
  rt.InjectCrash(rng);
  workload->DropVolatile();
  ASSERT_TRUE(workload->Recover().ok());
  EXPECT_TRUE(workload->Verify().ok());
}

// ---- Mode equivalence ------------------------------------------------------------

// All four execution modes compute the same functional result for the same
// seed -- offloading is performance-transparent.
TEST(ModeEquivalenceTest, SameFunctionalStateAcrossModes) {
  std::vector<std::uint64_t> counts;
  for (ExecMode mode :
       {ExecMode::kCpuBaseline, ExecMode::kNdpSingleDevice,
        ExecMode::kNdpMultiSwSync, ExecMode::kNdpMultiDelayed}) {
    RuntimeOptions opts;
    opts.mode = mode;
    opts.pm_size = 256ull << 20;
    Runtime rt(opts);
    PoolArena arena;
    auto workload = CreateWorkload("skiplist");
    WorkloadConfig config;
    config.mechanism = Mechanism::kLogging;
    config.data_size = 4ull << 20;
    config.initial_keys = 100;
    ASSERT_TRUE(workload->Setup(rt, arena, config).ok());
    Rng rng(55);
    for (int op = 0; op < 100; ++op) {
      ASSERT_TRUE(workload->RunOp(0, rng).ok());
    }
    rt.DrainDevices(0);
    ASSERT_TRUE(workload->Verify().ok());
    // Count via a full verify walk (Verify already checked count == walked);
    // load the recorded count for the cross-mode comparison.
    std::uint64_t count = 0;
    ASSERT_TRUE(workload->heap()
                    .Read(0, workload->heap().root() + 16,
                          {reinterpret_cast<std::uint8_t*>(&count), 8})
                    .ok());
    counts.push_back(count);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
  EXPECT_EQ(counts[0], counts[3]);
}

// ---- The PPO ablation across mechanisms -------------------------------------------

// With enforce_ppo=false, a power failure striking a multi-store operation
// mid-flight (updates partially evicted to PM, the in-flight undo logs lost)
// leaves a torn state recovery cannot repair; with PPO the write-back guard
// makes the logs durable whenever an update survived, so recovery always
// restores the all-old state. Both stores form one atomic pair: after
// recovery they must be either both old or both new.
TEST(PpoAblationSweepTest, NaiveModeEventuallyCorrupts) {
  auto run = [](bool enforce, std::uint64_t seed) -> bool {
    RuntimeOptions opts;
    opts.mode = ExecMode::kNdpMultiDelayed;
    opts.enforce_ppo = enforce;
    opts.pending_line_survival = 0.5;  // some updated lines evict, some not
    opts.pm_size = 64ull << 20;
    Runtime rt(opts);
    PoolArena arena;
    HeapOptions ho;
    ho.mechanism = Mechanism::kLogging;
    ho.data_size = 1ull << 20;
    auto heap = PersistentHeap::Create(rt, arena, ho);
    EXPECT_TRUE(heap.ok());
    const PmAddr a = (*heap)->root();
    const PmAddr b = (*heap)->root() + 8192;  // a different device stripe
    // Committed pair (old state).
    EXPECT_TRUE((*heap)->BeginOp(0).ok());
    EXPECT_TRUE((*heap)->Store<std::uint64_t>(0, a, 1).ok());
    EXPECT_TRUE((*heap)->Store<std::uint64_t>(0, b, 1).ok());
    EXPECT_TRUE((*heap)->CommitOp(0).ok());
    rt.DrainDevices(0);
    // Torn operation: both stores issued, power fails before commit.
    EXPECT_TRUE((*heap)->BeginOp(0).ok());
    EXPECT_TRUE((*heap)->Store<std::uint64_t>(0, a, 2).ok());
    EXPECT_TRUE((*heap)->Store<std::uint64_t>(0, b, 2).ok());
    Rng rng(seed);
    rt.InjectCrash(rng);
    (*heap)->DropVolatile();
    EXPECT_TRUE((*heap)->Recover().ok());
    const std::uint64_t va = *(*heap)->Load<std::uint64_t>(0, a);
    const std::uint64_t vb = *(*heap)->Load<std::uint64_t>(0, b);
    const bool consistent = va == vb;
    if (enforce) {
      EXPECT_TRUE(consistent) << "PPO violated at seed " << seed << ": a="
                              << va << " b=" << vb;
    }
    return consistent;
  };

  int naive_corruptions = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run(/*enforce=*/true, seed);  // asserts internally
    naive_corruptions += run(/*enforce=*/false, seed) ? 0 : 1;
  }
  EXPECT_GT(naive_corruptions, 0)
      << "the ablation never surfaced the Section 2.3 inconsistency";
}

}  // namespace
}  // namespace nearpm
