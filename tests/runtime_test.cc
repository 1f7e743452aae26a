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

RuntimeOptions Opts(ExecMode mode) {
  RuntimeOptions o;
  o.mode = mode;
  o.pm_size = 16ull << 20;
  return o;
}

// Lays out a little arena by hand: data at 0, log slots at 1 MB.
struct RtFixture {
  explicit RtFixture(ExecMode mode) : rt(Opts(mode)) {
    auto p = rt.RegisterPool(0, 8ull << 20);
    EXPECT_TRUE(p.ok());
    pool = *p;
  }
  PmAddr slot(int i) const {
    return (1ull << 20) + static_cast<PmAddr>(i) * kSlotSize;
  }
  Runtime rt;
  PoolId pool = 0;
};

TEST(RuntimeTest, PoolRegistrationBounds) {
  Runtime rt(Opts(ExecMode::kCpuBaseline));
  EXPECT_TRUE(rt.RegisterPool(0, 1 << 20).ok());
  EXPECT_FALSE(rt.RegisterPool(0, 1ull << 40).ok());
}

TEST(RuntimeTest, WriteReadRoundTrip) {
  RtFixture f(ExecMode::kNdpMultiDelayed);
  const auto data = Pattern(100, 7);
  f.rt.Write(0, 500, data);
  std::vector<std::uint8_t> out(100);
  f.rt.Read(0, 500, out);
  EXPECT_EQ(out, data);
  EXPECT_GT(f.rt.Now(0), 0u);
}

TEST(RuntimeTest, LoadStoreTyped) {
  RtFixture f(ExecMode::kCpuBaseline);
  f.rt.Store<std::uint64_t>(0, 128, 0xdeadbeef);
  EXPECT_EQ(f.rt.Load<std::uint64_t>(0, 128), 0xdeadbeefu);
}

TEST(RuntimeTest, ComputeAdvancesClock) {
  RtFixture f(ExecMode::kCpuBaseline);
  const SimTime before = f.rt.Now(0);
  f.rt.Compute(0, 1234.0);
  EXPECT_EQ(f.rt.Now(0), before + 1234);
}

TEST(RuntimeTest, ThreadClocksIndependent) {
  RtFixture f(ExecMode::kCpuBaseline);
  f.rt.Compute(0, 100.0);
  f.rt.Compute(1, 700.0);
  EXPECT_EQ(f.rt.Now(0), 100u);
  EXPECT_EQ(f.rt.Now(1), 700u);
  EXPECT_EQ(f.rt.stats().MaxThreadTime(), 700u);
}

// ---- Primitives: functional behaviour across modes --------------------------

class PrimitiveModeTest : public ::testing::TestWithParam<ExecMode> {};

TEST_P(PrimitiveModeTest, UndologCreateWritesSlot) {
  RtFixture f(GetParam());
  f.rt.Write(0, 0, Pattern(256, 9));
  f.rt.Persist(0, 0, 256);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 42, 0, 256, f.slot(0)).ok());
  f.rt.DrainDevices(0);

  const SlotHeader header = f.rt.Load<SlotHeader>(0, f.slot(0));
  EXPECT_EQ(header.magic, kUndoMagic);
  EXPECT_EQ(header.tag, 42u);
  EXPECT_EQ(header.target, 0u);
  EXPECT_EQ(header.size, 256u);
  std::vector<std::uint8_t> payload(256);
  f.rt.Read(0, CcArea::SlotData(f.slot(0)), payload);
  EXPECT_EQ(payload, Pattern(256, 9));
  EXPECT_EQ(Checksum64(payload), header.checksum);
}

TEST_P(PrimitiveModeTest, ApplyLogCopiesToTarget) {
  RtFixture f(GetParam());
  f.rt.Write(0, CcArea::SlotData(f.slot(1)), Pattern(128, 3));
  f.rt.Persist(0, CcArea::SlotData(f.slot(1)), 128);
  ASSERT_TRUE(f.rt.ApplyLog(f.pool, 0, f.slot(1), 128, 2048).ok());
  f.rt.DrainDevices(0);
  std::vector<std::uint8_t> out(128);
  f.rt.Read(0, 2048, out);
  EXPECT_EQ(out, Pattern(128, 3));
}

TEST_P(PrimitiveModeTest, CommitLogInvalidatesSlots) {
  RtFixture f(GetParam());
  f.rt.Write(0, 0, Pattern(64, 1));
  f.rt.Persist(0, 0, 64);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 64, f.slot(0)).ok());
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 64, f.slot(1)).ok());
  const PmAddr slots[] = {f.slot(0), f.slot(1)};
  ASSERT_TRUE(f.rt.CommitLog(f.pool, 0, slots).ok());
  f.rt.DrainDevices(0);
  EXPECT_EQ(f.rt.Load<SlotHeader>(0, f.slot(0)).magic, 0u);
  EXPECT_EQ(f.rt.Load<SlotHeader>(0, f.slot(1)).magic, 0u);
}

TEST_P(PrimitiveModeTest, CkpointCreateSnapshotsPage) {
  RtFixture f(GetParam());
  f.rt.Write(0, 8192, Pattern(4096, 5));
  f.rt.Persist(0, 8192, 4096);
  ASSERT_TRUE(f.rt.CkpointCreate(f.pool, 0, 3, 8192, 4096, f.slot(2)).ok());
  f.rt.DrainDevices(0);
  const SlotHeader header = f.rt.Load<SlotHeader>(0, f.slot(2));
  EXPECT_EQ(header.magic, kCkptMagic);
  EXPECT_EQ(header.tag, 3u);
  std::vector<std::uint8_t> payload(4096);
  f.rt.Read(0, CcArea::SlotData(f.slot(2)), payload);
  EXPECT_EQ(payload, Pattern(4096, 5));
}

TEST_P(PrimitiveModeTest, ShadowCpyDuplicatesPage) {
  RtFixture f(GetParam());
  f.rt.Write(0, 4096, Pattern(4096, 8));
  f.rt.Persist(0, 4096, 4096);
  ASSERT_TRUE(f.rt.ShadowCpy(f.pool, 0, 4096, 12288, 4096).ok());
  f.rt.DrainDevices(0);
  std::vector<std::uint8_t> out(4096);
  f.rt.Read(0, 12288, out);
  EXPECT_EQ(out, Pattern(4096, 8));
}

TEST_P(PrimitiveModeTest, RawCopySynchronous) {
  RtFixture f(GetParam());
  f.rt.Write(0, 0, Pattern(512, 2));
  f.rt.Persist(0, 0, 512);
  ASSERT_TRUE(f.rt.RawCopy(f.pool, 0, 0, 2048, 512, /*wait=*/true).ok());
  std::vector<std::uint8_t> out(512);
  f.rt.Read(0, 2048, out);
  EXPECT_EQ(out, Pattern(512, 2));
}

TEST_P(PrimitiveModeTest, PoolBoundsEnforced) {
  RtFixture f(GetParam());
  EXPECT_FALSE(f.rt.UndologCreate(f.pool, 0, 1, 9ull << 20, 64, f.slot(0)).ok());
  EXPECT_FALSE(f.rt.RawCopy(f.pool + 7, 0, 0, 64, 64, true).ok());
  EXPECT_FALSE(f.rt.UndologCreate(f.pool, 0, 1, 0, 0, f.slot(0)).ok());
  EXPECT_FALSE(
      f.rt.UndologCreate(f.pool, 0, 1, 0, kMaxLogData + 1, f.slot(0)).ok());
}

INSTANTIATE_TEST_SUITE_P(AllModes, PrimitiveModeTest,
                         ::testing::Values(ExecMode::kCpuBaseline,
                                           ExecMode::kNdpSingleDevice,
                                           ExecMode::kNdpMultiSwSync,
                                           ExecMode::kNdpMultiDelayed),
                         [](const auto& p) {
                           return ExecModeName(p.param);
                         });

// ---- PPO ordering (Invariant 1/2) -------------------------------------------

TEST(RuntimeOrderingTest, StoreAndPersistDoNotStall) {
  RtFixture f(ExecMode::kNdpSingleDevice);
  f.rt.Write(0, 0, Pattern(4096, 1));
  f.rt.Persist(0, 0, 4096);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
  // In-place update of the logged data: the store lands in the cache and
  // proceeds (PPO's relaxation)...
  f.rt.Write(0, 0, Pattern(64, 2));
  EXPECT_EQ(f.rt.device(0).stats().host_access_stalls, 0u);
  // ...and its write-back is *accepted* into the persistent host queue
  // without stalling; the conflicting log copy becomes crash-durable.
  const SimTime before = f.rt.Now(0);
  f.rt.Persist(0, 0, 64);
  EXPECT_LT(f.rt.Now(0), before + NsToTime(f.rt.options().hw.cost.NdpCopyNs(4096)));
  EXPECT_GT(f.rt.device(0).stats().host_buffered_writebacks, 0u);
  // Crash: both the buffered update and the log must be durable.
  Rng rng(1);
  const CrashReport report = f.rt.InjectCrash(rng);
  EXPECT_EQ(report.requests_dropped, 0u);
  EXPECT_EQ(f.rt.Load<SlotHeader>(0, f.slot(0)).magic, kUndoMagic);
}

TEST(RuntimeOrderingTest, LoadStallsBehindConflictingNdpWrite) {
  RtFixture f(ExecMode::kNdpSingleDevice);
  // Apply a redo log near memory, then immediately read the target: the
  // load must wait for the in-flight copy.
  f.rt.Write(0, CcArea::SlotData(f.slot(0)), Pattern(4096, 3));
  f.rt.Persist(0, CcArea::SlotData(f.slot(0)), 4096);
  ASSERT_TRUE(f.rt.ApplyLog(f.pool, 0, f.slot(0), 4096, 131072).ok());
  const SimTime before = f.rt.Now(0);
  std::vector<std::uint8_t> out(64);
  f.rt.Read(0, 131072, out);
  EXPECT_GT(f.rt.Now(0), before + NsToTime(500.0));
  EXPECT_GT(f.rt.device(0).stats().host_access_stalls, 0u);
  EXPECT_EQ(out, Pattern(64, 3));
}

TEST(RuntimeOrderingTest, AblationSkipsOrdering) {
  RuntimeOptions o = Opts(ExecMode::kNdpSingleDevice);
  o.enforce_ppo = false;
  Runtime rt(o);
  auto pool = rt.RegisterPool(0, 8ull << 20);
  rt.Write(0, 0, Pattern(4096, 1));
  rt.Persist(0, 0, 4096);
  ASSERT_TRUE(rt.UndologCreate(*pool, 0, 1, 0, 4096, 1ull << 20).ok());
  rt.Write(0, 0, Pattern(64, 2));
  rt.Persist(0, 0, 64);  // naive hardware: no ordering established
  EXPECT_EQ(rt.device(0).stats().host_access_stalls, 0u);
  EXPECT_EQ(rt.device(0).stats().host_buffered_writebacks, 0u);
}

// ---- Mode performance shapes -------------------------------------------------

double RegionTimeFor(ExecMode mode) {
  RtFixture f(mode);
  // Steady-state pattern: four independent 1 kB log creates then a commit,
  // repeated. The CPU-side region time is what Figure 15 measures.
  f.rt.Write(0, 0, Pattern(16384, 1));
  f.rt.Persist(0, 0, 16384);
  for (int rep = 0; rep < 20; ++rep) {
    f.rt.BeginCc(0);
    std::vector<PmAddr> slots;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(f.rt
                      .UndologCreate(f.pool, 0, rep + 1,
                                     static_cast<PmAddr>(i) * 4096, 1024,
                                     f.slot(i))
                      .ok());
      slots.push_back(f.slot(i));
    }
    EXPECT_TRUE(f.rt.CommitLog(f.pool, 0, slots).ok());
    f.rt.EndCc(0);
    f.rt.Compute(0, 5000.0);  // app work between transactions
  }
  f.rt.DrainDevices(0);
  return f.rt.stats().CcRegionNs();
}

TEST(RuntimeModeShapeTest, NdpReducesCcRegionTime) {
  const double baseline = RegionTimeFor(ExecMode::kCpuBaseline);
  const double sd = RegionTimeFor(ExecMode::kNdpSingleDevice);
  const double md_sw = RegionTimeFor(ExecMode::kNdpMultiSwSync);
  const double md = RegionTimeFor(ExecMode::kNdpMultiDelayed);
  // All NDP modes beat the CPU baseline in the crash-consistency region.
  EXPECT_GT(baseline / sd, 2.0);
  EXPECT_GT(baseline / md_sw, 1.5);
  EXPECT_GT(baseline / md, 2.0);
  // Delayed sync beats CPU-polling software sync (the Figure 16 ordering).
  EXPECT_GT(md_sw / md, 1.05);
}

TEST(RuntimeModeShapeTest, OverlapOnlyWithNdp) {
  RtFixture base(ExecMode::kCpuBaseline);
  EXPECT_EQ(base.rt.stats().OverlapNs(), 0.0);

  RtFixture f(ExecMode::kNdpMultiDelayed);
  f.rt.Write(0, 0, Pattern(4096, 1));
  f.rt.Persist(0, 0, 4096);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
  f.rt.Compute(0, 10000.0);
  EXPECT_GT(f.rt.stats().OverlapNs(), 0.0);
}

// ---- Crash and hardware recovery ---------------------------------------------

TEST(RuntimeCrashTest, InFlightRequestLostWithoutSync) {
  RtFixture f(ExecMode::kNdpSingleDevice);
  f.rt.Write(0, 0, Pattern(4096, 1));
  f.rt.Persist(0, 0, 4096);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
  // Crash immediately: the copy is still in flight on the device.
  Rng rng(1);
  const CrashReport report = f.rt.InjectCrash(rng);
  EXPECT_GT(report.requests_dropped + report.requests_truncated, 0u);
}

TEST(RuntimeCrashTest, ObservedRequestSurvivesCrash) {
  RtFixture f(ExecMode::kNdpSingleDevice);
  f.rt.Write(0, 0, Pattern(256, 1));
  f.rt.Persist(0, 0, 256);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 256, f.slot(0)).ok());
  // The in-place update stalls behind the log copy; afterwards the log is
  // architecturally durable.
  f.rt.Write(0, 0, Pattern(256, 2));
  f.rt.Persist(0, 0, 256);
  Rng rng(1);
  f.rt.InjectCrash(rng);
  const SlotHeader header = f.rt.Load<SlotHeader>(0, f.slot(0));
  EXPECT_EQ(header.magic, kUndoMagic);
  std::vector<std::uint8_t> payload(256);
  f.rt.Read(0, CcArea::SlotData(f.slot(0)), payload);
  EXPECT_EQ(payload, Pattern(256, 1));  // the pre-update data
  // And the in-place update persisted.
  std::vector<std::uint8_t> data(256);
  f.rt.Read(0, 0, data);
  EXPECT_EQ(data, Pattern(256, 2));
}

TEST(RuntimeCrashTest, DrainedStateFullyDurable) {
  RtFixture f(ExecMode::kNdpMultiDelayed);
  f.rt.Write(0, 0, Pattern(4096, 1));
  f.rt.Persist(0, 0, 4096);
  ASSERT_TRUE(f.rt.UndologCreate(f.pool, 0, 1, 0, 4096, f.slot(0)).ok());
  f.rt.DrainDevices(0);
  Rng rng(1);
  const CrashReport report = f.rt.InjectCrash(rng);
  EXPECT_EQ(report.requests_dropped, 0u);
  EXPECT_EQ(report.requests_truncated, 0u);
  EXPECT_EQ(f.rt.Load<SlotHeader>(0, f.slot(0)).magic, kUndoMagic);
}

TEST(RuntimeCrashTest, ClockResetsAfterCrash) {
  RtFixture f(ExecMode::kNdpMultiDelayed);
  f.rt.Compute(0, 5000.0);
  Rng rng(1);
  f.rt.InjectCrash(rng);
  EXPECT_EQ(f.rt.Now(0), 0u);
}

// ---- Multi-device duplication -------------------------------------------------

TEST(RuntimeMultiDeviceTest, SpanningCopyDuplicatesCommand) {
  RtFixture f(ExecMode::kNdpMultiDelayed);
  // A 8 kB object starting at page 0 spans both interleaved devices.
  f.rt.Write(0, 0, Pattern(8192, 1));
  f.rt.Persist(0, 0, 8192);
  ASSERT_TRUE(f.rt.RawCopy(f.pool, 0, 0, 16384, 8192, true).ok());
  EXPECT_GE(f.rt.counters().duplicated_commands, 1u);
  std::vector<std::uint8_t> out(8192);
  f.rt.Read(0, 16384, out);
  EXPECT_EQ(out, Pattern(8192, 1));
}

TEST(RuntimeMultiDeviceTest, DelayedSyncCountsAndSwSyncPolls) {
  RtFixture delayed(ExecMode::kNdpMultiDelayed);
  delayed.rt.Write(0, 0, Pattern(64, 1));
  delayed.rt.Persist(0, 0, 64);
  ASSERT_TRUE(delayed.rt.UndologCreate(delayed.pool, 0, 1, 0, 64,
                                       delayed.slot(0)).ok());
  const PmAddr slots[] = {delayed.slot(0)};
  ASSERT_TRUE(delayed.rt.CommitLog(delayed.pool, 0, slots).ok());
  EXPECT_EQ(delayed.rt.counters().delayed_syncs, 1u);
  EXPECT_EQ(delayed.rt.counters().sw_sync_polls, 0u);

  RtFixture sw(ExecMode::kNdpMultiSwSync);
  sw.rt.Write(0, 0, Pattern(64, 1));
  sw.rt.Persist(0, 0, 64);
  ASSERT_TRUE(sw.rt.UndologCreate(sw.pool, 0, 1, 0, 64, sw.slot(0)).ok());
  const PmAddr sw_slots[] = {sw.slot(0)};
  ASSERT_TRUE(sw.rt.CommitLog(sw.pool, 0, sw_slots).ok());
  EXPECT_EQ(sw.rt.counters().sw_sync_polls, 1u);
  EXPECT_EQ(sw.rt.counters().delayed_syncs, 0u);
}

}  // namespace
}  // namespace nearpm
