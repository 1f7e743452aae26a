// Direct tests of the four PPO invariants (Section 4) at the runtime level,
// plus hardware-recovery semantics (the crash model's sync-frontier repair).
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/core/runtime.h"

namespace nearpm {
namespace {

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

struct Fixture {
  explicit Fixture(ExecMode mode, bool ppo = true) {
    RuntimeOptions o;
    o.mode = mode;
    o.pm_size = 32ull << 20;
    o.enforce_ppo = ppo;
    rt = std::make_unique<Runtime>(o);
    auto p = rt->RegisterPool(0, 16ull << 20);
    EXPECT_TRUE(p.ok());
    pool = *p;
  }
  PmAddr slot(int i) const {
    return (8ull << 20) + static_cast<PmAddr>(i) * kSlotSize;
  }
  std::unique_ptr<Runtime> rt;
  PoolId pool = 0;
};

// Invariant 1 (read/write ordering, shared addresses): a CPU load of memory
// an NDP procedure is writing happens-after the NDP write.
TEST(PpoInvariant1Test, LoadReturnsCompletedNdpWrite) {
  Fixture f(ExecMode::kNdpMultiDelayed);
  f.rt->Write(0, CcArea::SlotData(f.slot(0)), Pattern(2048, 9));
  f.rt->Persist(0, CcArea::SlotData(f.slot(0)), 2048);
  ASSERT_TRUE(f.rt->ApplyLog(f.pool, 0, f.slot(0), 2048, 1 << 20).ok());
  // Load immediately: must see the fully applied data, never a torn state.
  std::vector<std::uint8_t> out(2048);
  f.rt->Read(0, 1 << 20, out);
  EXPECT_EQ(out, Pattern(2048, 9));
}

// Invariant 2 (persistence, shared addresses): a CPU persist issued after an
// NDP procedure in program order implies the NDP writes persist first --
// even through a crash.
TEST(PpoInvariant2Test, PersistOrdersBehindNdpProcedure) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture f(ExecMode::kNdpMultiDelayed);
    f.rt->Write(0, 0, Pattern(1024, 1));
    f.rt->Persist(0, 0, 1024);
    ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, 1, 0, 1024, f.slot(0)).ok());
    // Program order: update then persist the updated data.
    f.rt->Write(0, 0, Pattern(1024, 2));
    f.rt->Persist(0, 0, 1024);
    Rng rng(seed);
    f.rt->InjectCrash(rng);
    // The update persisted, so the log must have persisted before it.
    std::vector<std::uint8_t> data(1024);
    f.rt->Read(0, 0, data);
    ASSERT_EQ(data, Pattern(1024, 2));
    const SlotHeader header = f.rt->Load<SlotHeader>(0, f.slot(0));
    ASSERT_EQ(header.magic, kUndoMagic) << "seed " << seed;
    std::vector<std::uint8_t> payload(1024);
    f.rt->Read(0, CcArea::SlotData(f.slot(0)), payload);
    ASSERT_EQ(payload, Pattern(1024, 1));
    ASSERT_EQ(Checksum64(payload), header.checksum);
  }
}

// Relaxed half of Invariant 2: persists to NDP-managed memory (the log) do
// NOT block the CPU -- the posting thread keeps running while the copy is in
// flight.
TEST(PpoInvariant2Test, NdpManagedWritesDoNotBlockCpu) {
  Fixture f(ExecMode::kNdpMultiDelayed);
  f.rt->Write(0, 0, Pattern(4096, 1));
  f.rt->Persist(0, 0, 4096);
  const SimTime before = f.rt->Now(0);
  ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
  const SimTime after = f.rt->Now(0);
  // The CPU paid only the command post, far less than the 4 kB copy.
  EXPECT_LT(static_cast<double>(after - before),
            f.rt->options().hw.cost.NdpCopyNs(4096));
}

// Invariant 3 (persist-before-synchronization): at a crash, if anything
// issued after a synchronization is durable anywhere, everything issued
// before it is durable everywhere.
TEST(PpoInvariant3Test, SyncFrontierRepairsStragglers) {
  Fixture f(ExecMode::kNdpMultiDelayed);
  // Two log creates on a 8 kB object spanning both devices, then a commit
  // (which emits the sync + deferred deletes), then lots of CPU progress so
  // the sync completes, then another create.
  f.rt->Write(0, 0, Pattern(4096, 1));
  f.rt->Persist(0, 0, 4096);
  ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
  const PmAddr slots[] = {f.slot(0)};
  ASSERT_TRUE(f.rt->CommitLog(f.pool, 0, slots).ok());
  f.rt->Compute(0, 50000.0);  // the delayed sync completes meanwhile
  ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, 2, 8192, 1024, f.slot(1)).ok());
  f.rt->Compute(0, 50000.0);
  Rng rng(3);
  const CrashReport report = f.rt->InjectCrash(rng);
  // The commit's sync was reached: the frontier is nonzero and nothing from
  // before it was lost.
  EXPECT_GT(report.frontier_sync, 0u);
}

// Invariant 4 (failure-recovery): after any crash, an interrupted undo
// procedure leaves either a valid, checksummed log or no trace -- recovery
// never reads a half-written log as valid.
TEST(PpoInvariant4Test, LogsAreValidOrAbsentAfterCrash) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Fixture f(ExecMode::kNdpMultiDelayed);
    f.rt->Write(0, 0, Pattern(4096, 7));
    f.rt->Persist(0, 0, 4096);
    ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
    // Crash with the copy possibly mid-flight.
    Rng rng(seed);
    f.rt->InjectCrash(rng);
    const SlotHeader header = f.rt->Load<SlotHeader>(0, f.slot(0));
    if (header.magic == kUndoMagic) {
      // Header present => payload complete and checksummed (the header is
      // the last work item of the request).
      std::vector<std::uint8_t> payload(header.size);
      f.rt->Read(0, CcArea::SlotData(f.slot(0)), payload);
      EXPECT_EQ(Checksum64(payload), header.checksum) << "seed " << seed;
    } else {
      EXPECT_EQ(header.magic, 0u) << "seed " << seed;
    }
  }
}

// Hardware recovery: requests that were durable at the crash are not
// replayed (replaying an undo-log create against updated data would corrupt
// the pre-image); requests that were lost leave no valid log.
TEST(HardwareRecoveryTest, ReplayNeverCorruptsDurableLogs) {
  Fixture f(ExecMode::kNdpMultiDelayed);
  f.rt->Write(0, 0, Pattern(256, 1));
  f.rt->Persist(0, 0, 256);
  ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, 1, 0, 256, f.slot(0)).ok());
  // The update's persist orders behind the log copy and retires it.
  f.rt->Write(0, 0, Pattern(256, 2));
  f.rt->Persist(0, 0, 256);
  Rng rng(5);
  f.rt->InjectCrash(rng);
  // The log payload must still be the PRE-update data even though the
  // request may still have been in the request FIFO at the crash.
  std::vector<std::uint8_t> payload(256);
  f.rt->Read(0, CcArea::SlotData(f.slot(0)), payload);
  EXPECT_EQ(payload, Pattern(256, 1));
}

// Completed requests leave the request FIFO (32 entries): a crash long after
// they finished finds (almost) nothing in flight to drop or truncate.
TEST(HardwareRecoveryTest, CompletedRequestsLeaveNothingInFlight) {
  Fixture f(ExecMode::kNdpSingleDevice);
  f.rt->Write(0, 0, Pattern(4096, 1));
  f.rt->Persist(0, 0, 4096);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.rt->UndologCreate(f.pool, 0, static_cast<std::uint64_t>(i),
                                    0, 64, f.slot(i % 8))
                    .ok());
    f.rt->Compute(0, 2000.0);  // each copy completes before the next issue
  }
  // Everything completed long ago; a crash finds (almost) nothing in flight.
  Rng rng(1);
  const CrashReport report = f.rt->InjectCrash(rng);
  EXPECT_LE(report.requests_dropped + report.requests_truncated, 2u);
}

}  // namespace
}  // namespace nearpm
