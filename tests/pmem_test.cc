#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/pmem/interleave.h"
#include "src/pmem/pm_space.h"

namespace nearpm {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) {
    out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

// ---- InterleaveMap ----------------------------------------------------------

TEST(InterleaveTest, RoundRobinStripes) {
  InterleaveMap il(2, 4096);
  EXPECT_EQ(il.DeviceOf(0), 0u);
  EXPECT_EQ(il.DeviceOf(4095), 0u);
  EXPECT_EQ(il.DeviceOf(4096), 1u);
  EXPECT_EQ(il.DeviceOf(8192), 0u);
}

TEST(InterleaveTest, LocalOffsets) {
  InterleaveMap il(2, 4096);
  EXPECT_EQ(il.LocalOffsetOf(0), 0u);
  EXPECT_EQ(il.LocalOffsetOf(100), 100u);
  EXPECT_EQ(il.LocalOffsetOf(4096), 0u);     // first stripe on device 1
  EXPECT_EQ(il.LocalOffsetOf(8192), 4096u);  // second stripe on device 0
  EXPECT_EQ(il.LocalOffsetOf(8200), 4104u);
}

TEST(InterleaveTest, SplitWithinOneStripe) {
  InterleaveMap il(2, 4096);
  std::vector<DeviceSlice> slices;
  il.Split({100, 200}, &slices);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].device, 0u);
  EXPECT_EQ(slices[0].global, (AddrRange{100, 200}));
}

TEST(InterleaveTest, SplitAcrossStripes) {
  InterleaveMap il(2, 4096);
  std::vector<DeviceSlice> slices;
  il.Split({4000, 8300}, &slices);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].device, 0u);
  EXPECT_EQ(slices[0].global, (AddrRange{4000, 4096}));
  EXPECT_EQ(slices[1].device, 1u);
  EXPECT_EQ(slices[1].global, (AddrRange{4096, 8192}));
  EXPECT_EQ(slices[2].device, 0u);
  EXPECT_EQ(slices[2].global, (AddrRange{8192, 8300}));
}

TEST(InterleaveTest, SplitCoversRangeExactly) {
  InterleaveMap il(3, 256);
  const AddrRange range{100, 5000};
  std::uint64_t covered = 0;
  PmAddr expect_next = range.begin;
  std::vector<DeviceSlice> slices;
  il.Split(range, &slices);
  for (const auto& s : slices) {
    EXPECT_EQ(s.global.begin, expect_next);
    expect_next = s.global.end;
    covered += s.global.size();
    EXPECT_EQ(s.device, il.DeviceOf(s.global.begin));
  }
  EXPECT_EQ(covered, range.size());
  EXPECT_EQ(expect_next, range.end);
}

// ---- PmSpace: CPU store-buffer semantics ------------------------------------

PmSpaceOptions SmallSpace() {
  PmSpaceOptions o;
  o.size = 1 << 20;
  o.num_devices = 2;
  return o;
}

TEST(PmSpaceTest, ReadsSeeWrites) {
  PmSpace space(SmallSpace());
  const auto data = Bytes({1, 2, 3, 4});
  space.CpuWrite(100, data);
  std::vector<std::uint8_t> out(4);
  space.CpuRead(100, out);
  EXPECT_EQ(out, data);
}

TEST(PmSpaceTest, UnpersistedWriteCanBeLost) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;  // pending lines always lost
  PmSpace space(o);
  space.CpuWrite(128, Bytes({42}));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.cpu_lines_dropped, 1u);
  std::vector<std::uint8_t> out(1);
  space.CpuRead(128, out);
  EXPECT_EQ(out[0], 0);
}

TEST(PmSpaceTest, PersistedWriteSurvives) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  space.CpuWrite(128, Bytes({42}));
  space.CpuPersist(128, 1);
  Rng rng(1);
  space.Crash(rng, 0);
  std::vector<std::uint8_t> out(1);
  space.CpuRead(128, out);
  EXPECT_EQ(out[0], 42);
}

TEST(PmSpaceTest, PendingLineSurvivalIsPerLine) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.5;
  PmSpace space(o);
  for (int i = 0; i < 64; ++i) {
    space.CpuWrite(static_cast<PmAddr>(i) * 64, Bytes({7}));
  }
  Rng rng(3);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.cpu_lines_dropped + report.cpu_lines_survived, 64u);
  EXPECT_GT(report.cpu_lines_dropped, 10u);
  EXPECT_GT(report.cpu_lines_survived, 10u);
}

TEST(PmSpaceTest, RepeatedWriteKeepsOldestPreImage) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  space.CpuWrite(0, Bytes({1}));
  space.CpuPersist(0, 1);
  space.CpuWrite(0, Bytes({2}));
  space.CpuWrite(0, Bytes({3}));  // second write to same pending line
  Rng rng(1);
  space.Crash(rng, 0);
  std::vector<std::uint8_t> out(1);
  space.CpuRead(0, out);
  EXPECT_EQ(out[0], 1);  // rolls back to the persisted value, not 2
}

TEST(PmSpaceTest, PendingLinesInCountsLines) {
  PmSpace space(SmallSpace());
  space.CpuWrite(0, Pattern(200, 0));  // touches lines 0..3
  EXPECT_EQ(space.PendingLinesIn({0, 200}), 4u);
  space.CpuPersist(0, 64);
  EXPECT_EQ(space.PendingLinesIn({0, 200}), 3u);
  EXPECT_EQ(space.PendingLinesIn({0, 64}), 0u);
}

// ---- PmSpace: lazily backed media -------------------------------------------

// Resident set size of this process: the second field of /proc/self/statm,
// in pages.
std::int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t total_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(PmSpaceTest, LargeSpaceIsBackedLazily) {
  PmSpaceOptions o;
  o.size = 512ull << 20;
  const std::int64_t before = ResidentBytes();
  ASSERT_GT(before, 0) << "could not read /proc/self/statm";
  PmSpace space(o);
  EXPECT_LT(ResidentBytes() - before, static_cast<std::int64_t>(o.size / 4));

  const std::vector<std::uint8_t> zeros(kCacheLineSize, 0);
  const PmAddr last = o.size - kCacheLineSize;
  std::vector<std::uint8_t> out(kCacheLineSize, 0xff);
  space.CpuRead(0, out);
  EXPECT_EQ(out, zeros);
  space.CpuRead(last, out);
  EXPECT_EQ(out, zeros);

  // The crash-state line tables must be as lazy as the media: guard and
  // NDP-write both ends of the space (undeclared requests, durable).
  const DeviceId last_dev = space.interleave().DeviceOf(last);
  space.GuardRange(0, 1, {0, kCacheLineSize});
  space.GuardRange(last_dev, 2, {last, o.size});
  space.NdpWrite(0, 1, 0, Pattern(kCacheLineSize, 5));
  space.NdpWrite(last_dev, 2, last, Pattern(kCacheLineSize, 7));

  space.CpuWrite(last, Pattern(kCacheLineSize, 3));
  space.CpuRead(last, out);
  EXPECT_EQ(out, Pattern(kCacheLineSize, 3));
  const CrashReport report = space.Crash(CrashPlan{});  // every line lost
  EXPECT_EQ(report.cpu_lines_dropped, 1u);
  space.CpuRead(last, out);
  EXPECT_EQ(out, Pattern(kCacheLineSize, 7));
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(kCacheLineSize, 5));
  EXPECT_LT(ResidentBytes() - before, static_cast<std::int64_t>(o.size / 4));
}

// A serving node's 16 MB space stays lazy whatever the process allocated
// before. With calloc, dropping the 24 MB space raised glibc's mmap
// threshold past 16 MB, so the next 16 MB space came from the heap, and
// the one after it was cleared page by page on the heap that one had held:
// the whole 16 MB became resident.
TEST(PmSpaceTest, SpaceBelowTheMmapThresholdIsBackedLazily) {
  PmSpaceOptions o;
  o.size = 16ull << 20;
  PmSpaceOptions larger = o;
  larger.size = 24ull << 20;
  { PmSpace dropped(larger); }
  { PmSpace dropped(o); }
  const std::int64_t before = ResidentBytes();
  ASSERT_GT(before, 0) << "could not read /proc/self/statm";
  PmSpace space(o);
  EXPECT_LT(ResidentBytes() - before, static_cast<std::int64_t>(o.size / 4));
}

// ---- PmSpace: NDP requests --------------------------------------------------

TEST(PmSpaceTest, NdpWriteIsVisibleAndDurableWhenCompleted) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 100, 200);
  space.NdpWrite(0, 1, 0, Pattern(128, 5));
  std::vector<std::uint8_t> out(128);
  space.NdpRead(0, out);
  EXPECT_EQ(out, Pattern(128, 5));
  Rng rng(1);
  // Crash after completion: everything stays.
  const CrashReport report = space.Crash(rng, 500);
  EXPECT_EQ(report.requests_durable, 1u);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(128, 5));
}

TEST(PmSpaceTest, NdpRequestNotStartedIsDropped) {
  PmSpace space(SmallSpace());
  space.CpuWrite(0, Pattern(128, 9));
  space.CpuPersist(0, 128);
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(128, 5));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);  // before start
  EXPECT_EQ(report.requests_dropped, 1u);
  std::vector<std::uint8_t> out(128);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(128, 9));  // pre-image restored
}

TEST(PmSpaceTest, NdpRequestMidFlightIsTruncatedToPrefix) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 0, 1000);
  space.NdpWrite(0, 1, 0, Pattern(640, 1));  // 10 lines
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);  // half way
  EXPECT_EQ(report.requests_truncated, 1u);
  std::vector<std::uint8_t> out(640);
  space.CpuRead(0, out);
  // Roughly the first half of the lines survived, and it is a strict prefix.
  std::size_t persisted_lines = 0;
  for (std::size_t line = 0; line < 10; ++line) {
    if (out[line * 64] != 0) {
      EXPECT_EQ(persisted_lines, line) << "non-prefix truncation";
      ++persisted_lines;
    }
  }
  EXPECT_EQ(persisted_lines, 5u);
}

TEST(PmSpaceTest, RetiredRequestAlwaysDurable) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  space.RetireRequest(0, 1);
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);  // "before" it even started
  EXPECT_EQ(report.requests_dropped, 0u);
  EXPECT_EQ(report.requests_truncated, 0u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 5));
}

TEST(PmSpaceTest, CpuObservationRetiresRequest) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  // CPU reads the line the request wrote: architecturally ordered after.
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.requests_dropped, 0u);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 5));  // the write survived the crash
}

TEST(PmSpaceTest, ObservationDisabledInAblationMode) {
  PmSpaceOptions o = SmallSpace();
  o.enforce_observation = false;
  PmSpace space(o);
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 5));  // value visible...
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.requests_dropped, 1u);  // ...but lost at the crash
}

TEST(PmSpaceTest, DependentRequestForcesPredecessorDurable) {
  PmSpace space(SmallSpace());
  // Request 1 writes a line; request 2 overwrites it later. If 2 executed,
  // 1 must have executed first (dispatcher serialization).
  space.BeginNdpRequest(0, 1, 0, 400);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  space.BeginNdpRequest(0, 2, 400, 450);
  space.NdpWrite(0, 2, 0, Pattern(64, 9));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);
  EXPECT_EQ(report.requests_durable, 2u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 9));
}

TEST(PmSpaceTest, SyncMarkerForcesPreSyncDurability) {
  PmSpace space(SmallSpace());
  // Device 0 finishes its half early; device 1 is slow. A sync separates the
  // slow request from a later fast one on device 0. The late request
  // completed, so everything before the sync must be durable everywhere.
  space.BeginNdpRequest(0, 1, 0, 100);
  space.NdpWrite(0, 1, 0, Pattern(64, 1));
  space.BeginNdpRequest(1, 2, 0, 10000);  // slow: would not finish by crash
  space.NdpWrite(1, 2, 4096, Pattern(64, 2));
  space.SyncMarker(1);
  space.BeginNdpRequest(0, 3, 150, 200);
  space.NdpWrite(0, 3, 64, Pattern(64, 3));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);
  EXPECT_EQ(report.forced_by_sync, 1u);  // the slow request on device 1
  EXPECT_EQ(report.frontier_sync, 1u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(4096, out);
  EXPECT_EQ(out, Pattern(64, 2));
}

TEST(PmSpaceTest, RetireThroughSyncReleasesRecords) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 0, 100);
  space.NdpWrite(0, 1, 0, Pattern(64, 1));
  space.BeginNdpRequest(1, 2, 0, 100);
  space.NdpWrite(1, 2, 4096, Pattern(64, 2));
  space.SyncMarker(1);
  EXPECT_EQ(space.live_request_count(0), 1u);
  EXPECT_EQ(space.live_request_count(1), 1u);
  space.RetireThroughSync(1);
  EXPECT_EQ(space.live_request_count(0), 0u);
  EXPECT_EQ(space.live_request_count(1), 0u);
}

TEST(PmSpaceTest, QuiesceMakesEverythingDurable) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  space.CpuWrite(0, Bytes({1}));
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 64, Bytes({2}));
  space.Quiesce();
  Rng rng(1);
  space.Crash(rng, 0);
  std::vector<std::uint8_t> out(2);
  space.CpuRead(0, {out.data(), 1});
  space.CpuRead(64, {out.data() + 1, 1});
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(PmSpaceTest, CrashReportsOutcomes) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 7, 0, 100);
  space.NdpWrite(0, 7, 0, Pattern(64, 1));
  space.BeginNdpRequest(0, 8, 1000, 1100);
  space.NdpWrite(0, 8, 64, Pattern(64, 2));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].at(7), CrashOutcome::kDurable);
  EXPECT_EQ(report.outcomes[0].at(8), CrashOutcome::kDropped);
}

// ---- PmSpace: eviction guards and last writers ------------------------------

// Request 1 is live and guards line 0 (it writes line 64); request 2 guards
// line 0 later and retires. A surviving line 0 is ordered behind its newest
// guard only, so nothing is forced durable and request 1 is dropped.
TEST(PmSpaceTest, NewerRetiredGuardShadowsOlderLiveGuard) {
  for (const bool newer_guard : {false, true}) {
    PmSpace space(SmallSpace());
    space.BeginNdpRequest(0, 1, 1000, 2000);
    space.GuardRange(0, 1, {0, 64});
    space.NdpWrite(0, 1, 64, Pattern(64, 1));
    if (newer_guard) {
      space.GuardRange(0, 2, {0, 64});
      space.RetireRequest(0, 2);
    }
    space.CpuWrite(0, Pattern(64, 9));
    const CrashReport report =
        space.Crash(CrashPlan{.crash_time = 0, .line_survival = {true}});
    EXPECT_EQ(report.cpu_lines_survived, 1u);
    // Without the newer guard, the surviving line forces request 1 durable.
    EXPECT_EQ(report.requests_dropped, newer_guard ? 1u : 0u) << newer_guard;
    EXPECT_EQ(report.requests_durable, newer_guard ? 0u : 1u) << newer_guard;
  }
}

// A guard or last writer recorded before a Quiesce or a crash orders
// nothing after it, even for a request that reuses its seq.
TEST(PmSpaceTest, LineTablesDoNotSurviveQuiesceOrCrash) {
  for (const bool crash : {false, true}) {
    PmSpace space(SmallSpace());
    space.GuardRange(0, 5, {0, 64});
    space.BeginNdpRequest(0, 6, 1000, 2000);
    space.NdpWrite(0, 6, 128, Pattern(64, 1));
    if (crash) {
      space.Crash(CrashPlan{.crash_time = 5000, .line_survival = {}});
    } else {
      space.Quiesce();
    }
    space.BeginNdpRequest(0, 5, 1000, 2000);
    space.NdpWrite(0, 5, 256, Pattern(64, 2));
    space.BeginNdpRequest(0, 6, 1000, 2000);
    space.NdpWrite(0, 6, 320, Pattern(64, 3));
    std::vector<std::uint8_t> out(64);
    space.CpuRead(128, out);  // request 6 no longer writes this line
    EXPECT_EQ(space.live_request_count(0), 2u) << crash;
    space.CpuWrite(0, Pattern(64, 9));
    space.CpuWrite(128, Pattern(64, 9));
    const CrashReport report = space.Crash(
        CrashPlan{.crash_time = 0, .line_survival = {true, true}});
    EXPECT_EQ(report.cpu_lines_survived, 2u) << crash;
    EXPECT_EQ(report.requests_dropped, 2u) << crash;
  }
}

// Line 0 is written by request 1, then by request 2. Retiring request 1
// leaves request 2 as the line's writer, so a load of the line retires 2;
// once 2 has retired, a load of the line retires nothing.
TEST(PmSpaceTest, LineKeepsItsWriterUntilTheNewerRequestRetires) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 1));
  space.BeginNdpRequest(0, 2, 3000, 4000);
  space.NdpWrite(0, 2, 0, Pattern(64, 2));
  space.RetireRequest(0, 1);
  EXPECT_EQ(space.live_request_count(0), 1u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(space.live_request_count(0), 0u);
  space.BeginNdpRequest(0, 3, 5000, 6000);
  space.NdpWrite(0, 3, 64, Pattern(64, 3));
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 2));
  EXPECT_EQ(space.live_request_count(0), 1u);
}

TEST(PmSpaceTest, FastPathWithoutCrashState) {
  PmSpaceOptions o = SmallSpace();
  o.retain_crash_state = false;
  PmSpace space(o);
  space.CpuWrite(0, Bytes({1, 2}));
  space.NdpWrite(0, 1, 64, Bytes({3}));
  std::vector<std::uint8_t> out(1);
  space.CpuRead(64, out);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(space.pending_line_count(), 0u);
}

}  // namespace
}  // namespace nearpm
