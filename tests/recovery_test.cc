// Recovery edge cases, asserted through the trace: a crash with nothing in
// flight, a second failure before software recovery runs, and
// multi-device crashes with commits in flight past the latest
// synchronization point. Hardware recovery (Section 5.3.3) is the crash
// model's sync-frontier repair, so the trace shows it as crash outcomes:
// everything executed before the frontier's sync marker is durable.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/core/runtime.h"
#include "src/pmlib/heap.h"
#include "src/trace/ppo_checker.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace {

// ---- Crash with nothing in flight -------------------------------------------

TEST(RecoveryTraceTest, CrashWithNothingInFlightReplaysNothing) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.pm_size = 16ull << 20;
  Runtime rt(options);
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);

  Rng rng(3);
  rt.InjectCrash(rng);

  std::size_t crashes = 0;
  std::size_t replays = 0;
  for (const TraceEvent& e : recorder.Snapshot()) {
    crashes += e.phase == TracePhase::kCrash;
    replays += e.phase == TracePhase::kRecoveryReplay;
  }
  EXPECT_EQ(crashes, 1u);
  EXPECT_EQ(replays, 0u);
  EXPECT_EQ(recorder.epoch(), 1u);  // the crash started a fresh epoch

  const auto violations = PpoChecker{}.Check(recorder);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

// ---- Multi-device crash with commits in flight ------------------------------

struct FrontierWindow {
  std::uint64_t frontier = 0;   // the kCrash event's frontier sync id
  std::size_t requests = 0;     // requests executed before its marker
  std::size_t not_durable = 0;  // their non-durable crash outcomes
  std::vector<PpoViolation> violations;
};

// Several committed operations (each commit issues a cross-device sync and
// deferred log deletions), then uncommitted creates still in flight past
// the latest synchronization point when the power fails. No DrainDevices:
// it records no sync marker, so it would hide the window.
FrontierWindow CrashWithCommitsInFlight(bool skip_recovery_replay) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.pm_size = 16ull << 20;
  options.skip_recovery_replay = skip_recovery_replay;
  Runtime rt(options);
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);
  auto pool = rt.RegisterPool(0, 2 << 20);
  EXPECT_TRUE(pool.ok());

  const PmAddr slot_base = 1 << 20;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const PmAddr slot = slot_base + i * 8192;
    EXPECT_TRUE(rt.UndologCreate(*pool, 0, /*tx_id=*/i + 1,
                                 /*old_data=*/i * 4096, 4096, slot)
                    .ok());
    const PmAddr slots[] = {slot};
    EXPECT_TRUE(rt.CommitLog(*pool, 0, slots).ok());
  }
  for (std::uint64_t i = 4; i < 6; ++i) {
    EXPECT_TRUE(rt.UndologCreate(*pool, 0, /*tx_id=*/i + 1,
                                 /*old_data=*/i * 4096, 4096,
                                 slot_base + i * 8192)
                    .ok());
  }
  Rng rng(11);
  rt.InjectCrash(rng);

  FrontierWindow window;
  window.violations = PpoChecker{}.Check(recorder);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kCrash) {
      window.frontier = e.arg0;
    }
  }
  std::uint64_t marker_order = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kSyncMarker && e.epoch == 0 &&
        e.seq == window.frontier) {
      marker_order = e.order;
    }
  }
  std::set<std::uint64_t> before_marker;
  for (const TraceEvent& e : events) {
    if ((e.phase == TracePhase::kUnitExec ||
         e.phase == TracePhase::kDeferredExec) &&
        e.order < marker_order) {
      before_marker.insert(e.seq);
    }
  }
  window.requests = before_marker.size();
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kCrashOutcome && before_marker.count(e.seq) &&
        e.arg0 != static_cast<std::uint64_t>(CrashOutcome::kDurable)) {
      ++window.not_durable;
    }
  }
  return window;
}

// Hardware recovery replays the request FIFO up to the frontier: every
// request whose execution was recorded before the frontier's sync marker is
// durable on every device. Requests past it are software recovery's.
TEST(RecoveryTraceTest, MultiDeviceReplayStaysInsideTheInFlightWindow) {
  const FrontierWindow window = CrashWithCommitsInFlight(false);
  EXPECT_TRUE(window.violations.empty())
      << PpoChecker::Report(window.violations);
  ASSERT_NE(window.frontier, 0u);
  ASSERT_GT(window.requests, 0u) << "no request before the frontier marker";
  EXPECT_EQ(window.not_durable, 0u);

  // Teeth: without the replay the same run leaves some of them lost.
  const FrontierWindow skipped = CrashWithCommitsInFlight(true);
  EXPECT_EQ(skipped.frontier, window.frontier);
  EXPECT_EQ(skipped.requests, window.requests);
  EXPECT_GT(skipped.not_durable, 0u);
}

// ---- Heap-level crash/recover cycles ----------------------------------------

struct Record {
  std::uint64_t counter = 0;
  std::uint64_t checksum = 0;
};

void Update(PersistentHeap& heap, PmAddr addr, std::uint64_t value) {
  ASSERT_TRUE(heap.BeginOp(0).ok());
  ASSERT_TRUE(heap.Store(0, addr, Record{value, value ^ 0xabcdef}).ok());
  ASSERT_TRUE(heap.CommitOp(0).ok());
}

TEST(RecoveryHeapTest, SecondCrashBeforeSoftwareRecoveryIsStillConsistent) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.pm_size = 64ull << 20;
  Runtime rt(options);
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);
  PoolArena arena;
  HeapOptions heap_options;
  heap_options.mechanism = Mechanism::kLogging;
  heap_options.data_size = 1 << 20;
  auto heap_or = PersistentHeap::Create(rt, arena, heap_options);
  ASSERT_TRUE(heap_or.ok());
  PersistentHeap& heap = **heap_or;
  const PmAddr rec_addr = heap.root();

  for (std::uint64_t i = 1; i <= 10; ++i) {
    Update(heap, rec_addr, i);
  }
  // Torn 11th operation: the undo log is durable (the store stalled behind
  // the log create, Invariant 2), the new value may or may not have hit PM.
  ASSERT_TRUE(heap.BeginOp(0).ok());
  ASSERT_TRUE(heap.Store(0, rec_addr, Record{11, 11 ^ 0xabcdef}).ok());

  Rng rng(42);
  rt.InjectCrash(rng);
  // Power fails again before any software recovery ran. The first crash
  // left nothing in flight; the second must find nothing to repair and
  // leave the logs intact.
  rt.InjectCrash(rng);
  EXPECT_EQ(recorder.epoch(), 2u);

  heap.DropVolatile();
  ASSERT_TRUE(heap.Recover().ok());
  auto rec = heap.Load<Record>(0, rec_addr);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->counter, 10u);  // the torn operation rolled back
  EXPECT_EQ(rec->checksum, rec->counter ^ 0xabcdef);

  const auto violations = PpoChecker{}.Check(recorder);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(RecoveryHeapTest, RepeatedCrashRecoverCyclesStayClean) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.pm_size = 64ull << 20;
  Runtime rt(options);
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);
  PoolArena arena;
  HeapOptions heap_options;
  heap_options.mechanism = Mechanism::kLogging;
  heap_options.data_size = 1 << 20;
  auto heap_or = PersistentHeap::Create(rt, arena, heap_options);
  ASSERT_TRUE(heap_or.ok());
  PersistentHeap& heap = **heap_or;
  const PmAddr rec_addr = heap.root();

  std::uint64_t committed = 0;
  Rng rng(7);
  for (int cycle = 0; cycle < 5; ++cycle) {
    Update(heap, rec_addr, ++committed);
    // Leave an operation torn on odd cycles.
    if (cycle % 2 == 1) {
      ASSERT_TRUE(heap.BeginOp(0).ok());
      ASSERT_TRUE(
          heap.Store(0, rec_addr, Record{1000 + committed, 0}).ok());
    }
    rt.InjectCrash(rng);
    heap.DropVolatile();
    ASSERT_TRUE(heap.Recover().ok());
    auto rec = heap.Load<Record>(0, rec_addr);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->counter, committed) << "cycle " << cycle;
  }
  EXPECT_EQ(recorder.epoch(), 5u);

  const auto violations = PpoChecker{}.Check(recorder);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

}  // namespace
}  // namespace nearpm
