#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/pmlib/heap.h"

namespace nearpm {
namespace {

RuntimeOptions Opts(ExecMode mode = ExecMode::kNdpMultiDelayed) {
  RuntimeOptions o;
  o.mode = mode;
  o.pm_size = 64ull << 20;
  return o;
}

struct HeapFixture {
  explicit HeapFixture(Mechanism mech, ExecMode mode = ExecMode::kNdpMultiDelayed)
      : rt(Opts(mode)), arena(0) {
    HeapOptions ho;
    ho.mechanism = mech;
    ho.data_size = 1ull << 20;
    ho.threads = 2;
    ho.ckpt_epoch_ops = 4;  // the recovery tests assume this interval
    auto h = PersistentHeap::Create(rt, arena, ho);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    heap = std::move(*h);
  }
  Runtime rt;
  PoolArena arena;
  std::unique_ptr<PersistentHeap> heap;
};

// ---- Allocator ---------------------------------------------------------------

TEST(AllocatorTest, ClassIndexMapping) {
  EXPECT_EQ(PmAllocator::ClassIndex(1), 0);
  EXPECT_EQ(PmAllocator::ClassIndex(64), 0);
  EXPECT_EQ(PmAllocator::ClassIndex(65), 1);
  EXPECT_EQ(PmAllocator::ClassIndex(128), 1);
  EXPECT_EQ(PmAllocator::ClassIndex(4096), 6);
  EXPECT_EQ(PmAllocator::ClassIndex(4097), -1);
  EXPECT_EQ(PmAllocator::ClassIndex(0), -1);
}

TEST(AllocatorTest, AllocFreeReuse) {
  HeapFixture f(Mechanism::kLogging);
  auto a = f.heap->allocator().Alloc(0, 100);
  ASSERT_TRUE(a.ok());
  auto b = f.heap->allocator().Alloc(0, 100);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  ASSERT_TRUE(f.heap->allocator().Free(0, *a, 100).ok());
  auto c = f.heap->allocator().Alloc(0, 100);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // block reused
}

TEST(AllocatorTest, DistinctClassesDistinctChunks) {
  HeapFixture f(Mechanism::kLogging);
  auto small = f.heap->allocator().Alloc(0, 64);
  auto large = f.heap->allocator().Alloc(0, 2048);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_NE(AlignDown(*small, kPmPageSize), AlignDown(*large, kPmPageSize));
}

TEST(AllocatorTest, BlocksStayInsidePage) {
  HeapFixture f(Mechanism::kLogging);
  for (int i = 0; i < 200; ++i) {
    auto a = f.heap->allocator().Alloc(0, 192);  // rounds to 256
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(AlignDown(*a, kPmPageSize), AlignDown(*a + 255, kPmPageSize));
  }
}

TEST(AllocatorTest, DoubleFreeRejected) {
  HeapFixture f(Mechanism::kLogging);
  auto a = f.heap->allocator().Alloc(0, 64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.heap->allocator().Free(0, *a, 64).ok());
  EXPECT_FALSE(f.heap->allocator().Free(0, *a, 64).ok());
}

TEST(AllocatorTest, WrongSizeClassFreeRejected) {
  HeapFixture f(Mechanism::kLogging);
  auto a = f.heap->allocator().Alloc(0, 64);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(f.heap->allocator().Free(0, *a, 1024).ok());
}

TEST(AllocatorTest, RebuildVolatileMatchesState) {
  HeapFixture f(Mechanism::kLogging);
  std::vector<PmAddr> blocks;
  for (int i = 0; i < 10; ++i) {
    auto a = f.heap->allocator().Alloc(0, 512);
    ASSERT_TRUE(a.ok());
    blocks.push_back(*a);
  }
  ASSERT_TRUE(f.heap->allocator().Free(0, blocks[3], 512).ok());
  f.heap->allocator().RebuildVolatile();
  EXPECT_EQ(f.heap->allocator().allocated_blocks(), 9u);
  // The freed block is allocatable again after rebuild (the allocator may
  // serve other free blocks first).
  bool reused = false;
  for (int i = 0; i < 8 && !reused; ++i) {
    auto again = f.heap->allocator().Alloc(0, 512);
    ASSERT_TRUE(again.ok());
    reused = *again == blocks[3];
  }
  EXPECT_TRUE(reused);
}

// ---- Heap operations across mechanisms ----------------------------------------

class MechanismTest
    : public ::testing::TestWithParam<std::tuple<Mechanism, ExecMode>> {};

TEST_P(MechanismTest, StoreLoadRoundTrip) {
  HeapFixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 12345).ok());
  // Uncommitted value visible to the writing thread.
  auto mid = f.heap->Load<std::uint64_t>(0, root);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(*mid, 12345u);
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  auto after = f.heap->Load<std::uint64_t>(0, root);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 12345u);
}

TEST_P(MechanismTest, MultipleOpsAccumulate) {
  HeapFixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const PmAddr root = f.heap->root();
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.heap->BeginOp(0).ok());
    ASSERT_TRUE(f.heap->Store(0, root + 8 * (i % 8), i).ok());
    ASSERT_TRUE(f.heap->CommitOp(0).ok());
  }
  auto v = f.heap->Load<std::uint64_t>(0, root + 8 * 3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 19u);
}

TEST_P(MechanismTest, AllocateAndLinkInsideOp) {
  HeapFixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  auto node = f.heap->Alloc(0, 256);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, *node, 777).ok());
  ASSERT_TRUE(f.heap->Store<PmAddr>(0, root, *node).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());

  auto link = f.heap->Load<PmAddr>(0, root);
  ASSERT_TRUE(link.ok());
  auto value = f.heap->Load<std::uint64_t>(0, *link);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 777u);
}

TEST_P(MechanismTest, TwoThreadsIndependentOps) {
  HeapFixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->BeginOp(1).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 1).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(1, root + 4096, 2).ok());
  ASSERT_TRUE(f.heap->CommitOp(1).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 1u);
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root + 4096), 2u);
}

TEST_P(MechanismTest, BeginTwiceRejected) {
  HeapFixture f(std::get<0>(GetParam()), std::get<1>(GetParam()));
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  EXPECT_FALSE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  EXPECT_FALSE(f.heap->CommitOp(0).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanismsAndModes, MechanismTest,
    ::testing::Combine(::testing::Values(Mechanism::kLogging,
                                         Mechanism::kRedoLogging,
                                         Mechanism::kCheckpointing,
                                         Mechanism::kShadowPaging),
                       ::testing::Values(ExecMode::kCpuBaseline,
                                         ExecMode::kNdpSingleDevice,
                                         ExecMode::kNdpMultiDelayed)),
    [](const auto& p) {
      return std::string(MechanismName(std::get<0>(p.param))) + "_" +
             ExecModeName(std::get<1>(p.param));
    });

// ---- Targeted recovery behaviour ----------------------------------------------

TEST(UndoRecoveryTest, UncommittedOpRollsBack) {
  HeapFixture f(Mechanism::kLogging);
  const PmAddr root = f.heap->root();
  // Committed baseline value.
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 111).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  // Open op that never commits: in-place update persisted by force.
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 222).ok());
  f.rt.Persist(0, root, 8);  // make the torn update durable
  f.rt.DrainDevices(0);      // the undo log is definitely in PM

  Rng rng(7);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 111u);
  EXPECT_GT(static_cast<UndoLogProvider&>(f.heap->provider()).rollbacks(), 0u);
}

TEST(UndoRecoveryTest, CommittedOpSurvives) {
  HeapFixture f(Mechanism::kLogging);
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 333).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  Rng rng(7);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 333u);
}

TEST(RedoRecoveryTest, CommittedOpReappliesAfterCrash) {
  HeapFixture f(Mechanism::kRedoLogging);
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 444).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  Rng rng(7);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 444u);
}

TEST(RedoRecoveryTest, UncommittedOpDiscarded) {
  HeapFixture f(Mechanism::kRedoLogging);
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 555).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  // Second op never commits.
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 666).ok());
  Rng rng(7);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 555u);
}

TEST(CkptRecoveryTest, MidEpochCrashRollsBackToEpochStart) {
  HeapFixture f(Mechanism::kCheckpointing);
  auto& provider = static_cast<CheckpointProvider&>(f.heap->provider());
  const PmAddr root = f.heap->root();
  // Epoch interval is 4 ops: run exactly one full epoch.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(f.heap->BeginOp(0).ok());
    ASSERT_TRUE(f.heap->Store(0, root, i).ok());
    ASSERT_TRUE(f.heap->CommitOp(0).ok());
  }
  EXPECT_EQ(provider.epochs_closed(), 1u);
  // Two ops into the next epoch, then crash.
  for (std::uint64_t i = 5; i <= 6; ++i) {
    ASSERT_TRUE(f.heap->BeginOp(0).ok());
    ASSERT_TRUE(f.heap->Store(0, root, i).ok());
    ASSERT_TRUE(f.heap->CommitOp(0).ok());
  }
  f.rt.Persist(0, root, 8);
  Rng rng(9);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 4u);  // epoch boundary
}

TEST(ShadowRecoveryTest, UncommittedOpInvisibleAfterCrash) {
  HeapFixture f(Mechanism::kShadowPaging);
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 111).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 999).ok());
  // No commit: the shadow page was written but the PTE never switched.
  f.rt.DrainDevices(0);
  Rng rng(3);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 111u);
}

TEST(ShadowRecoveryTest, CommittedOpVisibleAfterCrash) {
  HeapFixture f(Mechanism::kShadowPaging);
  const PmAddr root = f.heap->root();
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Store<std::uint64_t>(0, root, 4242).ok());
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  Rng rng(3);
  f.rt.InjectCrash(rng);
  f.heap->DropVolatile();
  ASSERT_TRUE(f.heap->Recover().ok());
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 4242u);
}

TEST(ShadowProviderTest, PagesRecycledAfterCommit) {
  HeapFixture f(Mechanism::kShadowPaging);
  const PmAddr root = f.heap->root();
  // Many ops on the same page must not exhaust the physical page area.
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.heap->BeginOp(0).ok());
    ASSERT_TRUE(f.heap->Store(0, root, i).ok());
    ASSERT_TRUE(f.heap->CommitOp(0).ok());
  }
  EXPECT_EQ(*f.heap->Load<std::uint64_t>(0, root), 99u);
}

TEST(HeapFreeTest, FreeInsideOpIsDeferred) {
  HeapFixture f(Mechanism::kLogging);
  auto a = f.heap->Alloc(0, 64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.heap->BeginOp(0).ok());
  ASSERT_TRUE(f.heap->Free(0, *a, 64).ok());
  // Not yet reusable: the op has not committed.
  auto b = f.heap->Alloc(0, 64);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*b, *a);
  ASSERT_TRUE(f.heap->CommitOp(0).ok());
  auto c = f.heap->Alloc(0, 64);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // reusable after the durable point
}

}  // namespace
}  // namespace nearpm
