// Randomized crash-consistency property tests.
//
// A bank of accounts lives in a persistent heap; every operation transfers a
// random amount between two accounts (touching at least two pages, so the
// object spans both interleaved NearPM devices). At a random point the power
// fails -- dropping un-persisted CPU lines at random and truncating in-flight
// NDP work by its timing -- the process restarts, the mechanism recovers, and
// the invariant is checked: the sum of all accounts is exactly the minted
// total. Atomicity violations (half-applied transfers) break the sum.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/pmlib/heap.h"
#include "src/trace/ppo_checker.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace {

constexpr int kAccounts = 16;
constexpr std::uint64_t kInitialBalance = 1000;
constexpr std::uint64_t kAccountStride = 2048;  // spreads accounts over pages

class Bank {
 public:
  explicit Bank(PersistentHeap* heap) : heap_(heap) {}

  PmAddr AccountAddr(int i) const {
    return heap_->root() + static_cast<PmAddr>(i) * kAccountStride;
  }

  Status Mint(ThreadId t) {
    NEARPM_RETURN_IF_ERROR(heap_->BeginOp(t));
    for (int i = 0; i < kAccounts; ++i) {
      NEARPM_RETURN_IF_ERROR(
          heap_->Store<std::uint64_t>(t, AccountAddr(i), kInitialBalance));
    }
    return heap_->CommitOp(t);
  }

  Status Transfer(ThreadId t, int from, int to, std::uint64_t amount,
                  bool commit) {
    NEARPM_RETURN_IF_ERROR(heap_->BeginOp(t));
    auto a = heap_->Load<std::uint64_t>(t, AccountAddr(from));
    if (!a.ok()) return a.status();
    auto b = heap_->Load<std::uint64_t>(t, AccountAddr(to));
    if (!b.ok()) return b.status();
    const std::uint64_t moved = amount % (*a + 1);
    NEARPM_RETURN_IF_ERROR(
        heap_->Store<std::uint64_t>(t, AccountAddr(from), *a - moved));
    NEARPM_RETURN_IF_ERROR(
        heap_->Store<std::uint64_t>(t, AccountAddr(to), *b + moved));
    if (!commit) {
      return Status::Ok();  // power will fail mid-operation
    }
    return heap_->CommitOp(t);
  }

  StatusOr<std::uint64_t> Sum(ThreadId t) {
    std::uint64_t sum = 0;
    for (int i = 0; i < kAccounts; ++i) {
      auto v = heap_->Load<std::uint64_t>(t, AccountAddr(i));
      if (!v.ok()) return v.status();
      sum += *v;
    }
    return sum;
  }

 private:
  PersistentHeap* heap_;
};

struct CrashCase {
  Mechanism mechanism;
  ExecMode mode;
  std::uint64_t seed;
};

class CrashPropertyTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashPropertyTest, SumInvariantSurvivesCrash) {
  const CrashCase c = GetParam();
  RuntimeOptions opts;
  opts.mode = c.mode;
  opts.pm_size = 64ull << 20;
  Runtime rt(opts);
  // Record the whole schedule; PPO is enforced, so the trace must satisfy
  // the Section 4 invariants (checked at the end).
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);
  PoolArena arena(0);
  HeapOptions ho;
  ho.mechanism = c.mechanism;
  ho.data_size = 1ull << 20;
  auto heap = PersistentHeap::Create(rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  Bank bank(heap->get());
  ASSERT_TRUE(bank.Mint(0).ok());
  rt.DrainDevices(0);

  Rng rng(c.seed);
  const int total_ops = 40 + static_cast<int>(rng.NextBounded(80));
  const int crash_after = static_cast<int>(rng.NextBounded(total_ops));
  const bool crash_mid_op = rng.NextBool(0.3);

  for (int op = 0; op < total_ops; ++op) {
    const int from = static_cast<int>(rng.NextBounded(kAccounts));
    int to = static_cast<int>(rng.NextBounded(kAccounts));
    if (to == from) {
      to = (to + 1) % kAccounts;
    }
    const bool last = op == crash_after;
    ASSERT_TRUE(
        bank.Transfer(0, from, to, rng.Next() % 100, !(last && crash_mid_op))
            .ok());
    if (last) {
      break;
    }
  }

  rt.InjectCrash(rng);
  (*heap)->DropVolatile();
  ASSERT_TRUE((*heap)->Recover().ok());

  auto sum = bank.Sum(0);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, static_cast<std::uint64_t>(kAccounts) * kInitialBalance)
      << "atomicity violated: mechanism=" << MechanismName(c.mechanism)
      << " mode=" << ExecModeName(c.mode) << " seed=" << c.seed;

  // The recovered heap is usable: more transfers keep the invariant.
  for (int op = 0; op < 10; ++op) {
    ASSERT_TRUE(bank.Transfer(0, op % kAccounts, (op + 3) % kAccounts,
                              rng.Next() % 50, true)
                    .ok());
  }
  rt.DrainDevices(0);
  auto sum2 = bank.Sum(0);
  ASSERT_TRUE(sum2.ok());
  EXPECT_EQ(*sum2, static_cast<std::uint64_t>(kAccounts) * kInitialBalance);

  const auto violations = PpoChecker{}.Check(recorder);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

std::vector<CrashCase> AllCrashCases() {
  std::vector<CrashCase> cases;
  for (Mechanism mech :
       {Mechanism::kLogging, Mechanism::kRedoLogging,
        Mechanism::kCheckpointing, Mechanism::kShadowPaging}) {
    for (ExecMode mode :
         {ExecMode::kCpuBaseline, ExecMode::kNdpSingleDevice,
          ExecMode::kNdpMultiSwSync, ExecMode::kNdpMultiDelayed}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cases.push_back(CrashCase{mech, mode, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashPropertyTest,
                         ::testing::ValuesIn(AllCrashCases()),
                         [](const auto& p) {
                           return std::string(MechanismName(p.param.mechanism)) +
                                  "_" + ExecModeName(p.param.mode) + "_s" +
                                  std::to_string(p.param.seed);
                         });

// ---- Repeated crash-recover-crash cycles --------------------------------------

TEST(CrashCycleTest, SurvivesManyCrashes) {
  RuntimeOptions opts;
  opts.mode = ExecMode::kNdpMultiDelayed;
  opts.pm_size = 64ull << 20;
  Runtime rt(opts);
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);
  PoolArena arena(0);
  HeapOptions ho;
  ho.mechanism = Mechanism::kLogging;
  ho.data_size = 1ull << 20;
  auto heap = PersistentHeap::Create(rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  Bank bank(heap->get());
  ASSERT_TRUE(bank.Mint(0).ok());
  rt.DrainDevices(0);

  Rng rng(99);
  for (int cycle = 0; cycle < 15; ++cycle) {
    const int ops = 1 + static_cast<int>(rng.NextBounded(20));
    for (int op = 0; op < ops; ++op) {
      const int from = static_cast<int>(rng.NextBounded(kAccounts));
      const int to = (from + 1 + static_cast<int>(rng.NextBounded(kAccounts - 1))) %
                     kAccounts;
      ASSERT_TRUE(bank.Transfer(0, from, to, rng.Next() % 100, true).ok());
    }
    rt.InjectCrash(rng);
    (*heap)->DropVolatile();
    ASSERT_TRUE((*heap)->Recover().ok());
    auto sum = bank.Sum(0);
    ASSERT_TRUE(sum.ok());
    ASSERT_EQ(*sum, static_cast<std::uint64_t>(kAccounts) * kInitialBalance)
        << "cycle " << cycle;
  }

  // One epoch per crash, and no ordering violation in any of them.
  EXPECT_EQ(recorder.epoch(), 15u);
  const auto violations = PpoChecker{}.Check(recorder);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

// ---- The Section 2.3 inconsistency, reproduced and fixed by PPO ----------------

// Craft the paper's Figure 4 scenario: an undo log of a large object is still
// in flight when the CPU updates the object in place and the update reaches
// PM. Without PPO the log is lost and recovery cannot roll back; with PPO the
// CPU write stalls until the log persisted, so recovery always works.
std::uint64_t RecoveredValueWithPpo(bool enforce_ppo) {
  RuntimeOptions opts;
  opts.mode = ExecMode::kNdpMultiDelayed;
  opts.pm_size = 64ull << 20;
  opts.enforce_ppo = enforce_ppo;
  opts.pending_line_survival = 1.0;  // the unlucky eviction: update reaches PM
  Runtime rt(opts);
  PoolArena arena(0);
  HeapOptions ho;
  ho.mechanism = Mechanism::kLogging;
  ho.data_size = 1ull << 20;
  auto heap = PersistentHeap::Create(rt, arena, ho);
  EXPECT_TRUE(heap.ok());
  const PmAddr obj = (*heap)->root();

  // Committed initial value.
  EXPECT_TRUE((*heap)->BeginOp(0).ok());
  std::vector<std::uint8_t> old_value(4096, 0xAA);
  EXPECT_TRUE((*heap)->Write(0, obj, old_value).ok());
  EXPECT_TRUE((*heap)->CommitOp(0).ok());
  rt.DrainDevices(0);

  // Torn operation: overwrite the object, crash before commit, right after
  // the store. The 4 kB undo copy is still executing near memory.
  EXPECT_TRUE((*heap)->BeginOp(0).ok());
  std::vector<std::uint8_t> new_value(4096, 0xBB);
  EXPECT_TRUE((*heap)->Write(0, obj, new_value).ok());

  Rng rng(5);
  rt.InjectCrash(rng);
  (*heap)->DropVolatile();
  EXPECT_TRUE((*heap)->Recover().ok());
  auto v = (*heap)->Load<std::uint8_t>(0, obj);
  EXPECT_TRUE(v.ok());
  return *v;
}

TEST(PpoAblationTest, WithoutPpoRecoveryIsInconsistent) {
  EXPECT_EQ(RecoveredValueWithPpo(false), 0xBB)
      << "expected the torn update to survive unrecovered without PPO";
}

TEST(PpoAblationTest, WithPpoRecoveryRollsBack) {
  EXPECT_EQ(RecoveredValueWithPpo(true), 0xAA);
}

}  // namespace
}  // namespace nearpm
