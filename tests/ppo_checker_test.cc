// PpoChecker tests: each Section 4 invariant is exercised on synthetic event
// streams (violating and clean variants), then on real runs -- a PPO-enforced
// schedule must check clean, and the enforce_ppo=false ablation (the naive
// offload of Section 2.3) must produce a detected ordering violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/core/runtime.h"
#include "src/trace/ppo_checker.h"
#include "src/trace/recorder.h"
#include "src/trace/trace_event.h"

namespace nearpm {
namespace {

// Assigns the recorder-style global order (1-based record sequence) the
// checker keys every "issued before" relation on.
std::vector<TraceEvent> Sequenced(std::vector<TraceEvent> events) {
  std::uint64_t order = 0;
  for (TraceEvent& e : events) {
    e.order = ++order;
  }
  return events;
}

TraceEvent UnitExec(std::uint64_t seq, std::uint32_t pid, SimTime ts,
                    SimTime dur, AddrRange write_range,
                    AddrRange read_range = {}) {
  TraceEvent e;
  e.phase = TracePhase::kUnitExec;
  e.pid = pid;
  e.tid = kTraceUnitTidBase;
  e.ts = ts;
  e.dur = dur;
  e.seq = seq;
  e.range = write_range;
  e.range2 = read_range;
  return e;
}

TraceEvent DeferredExec(std::uint64_t seq, std::uint32_t pid, SimTime ts,
                        SimTime dur, AddrRange write_range) {
  TraceEvent e;
  e.phase = TracePhase::kDeferredExec;
  e.pid = pid;
  e.tid = kTraceMaintenanceTid;
  e.ts = ts;
  e.dur = dur;
  e.seq = seq;
  e.range = write_range;
  return e;
}

TraceEvent HostEvent(TracePhase phase, SimTime ts, AddrRange range = {}) {
  TraceEvent e;
  e.phase = phase;
  e.pid = kTraceHostPid;
  e.ts = ts;
  e.range = range;
  return e;
}

TraceEvent DeviceInstant(TracePhase phase, std::uint64_t seq,
                         std::uint32_t pid, SimTime ts,
                         std::uint64_t arg0 = 0) {
  TraceEvent e;
  e.phase = phase;
  e.pid = pid;
  e.ts = ts;
  e.seq = seq;
  e.arg0 = arg0;
  return e;
}

// Mirrors CrashOutcome values recorded in kCrashOutcome.arg0.
constexpr std::uint64_t kOutcomeLost = 0;
constexpr std::uint64_t kOutcomeDurable = 2;

// ---- Invariant 1: loads stall behind conflicting in-flight writes -----------

TEST(PpoCheckerSynthetic, Invariant1FlagsReadInsideWriteWindow) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(7, TraceDevicePid(0), 100, 100, {0, 64}),
      HostEvent(TracePhase::kCpuRead, 150, {32, 40}),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 1);
  EXPECT_EQ(violations[0].seq, 7u);
}

TEST(PpoCheckerSynthetic, Invariant1AcceptsStalledOrDisjointReads) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(7, TraceDevicePid(0), 100, 100, {0, 64}),
      // Post-stall: the load lands exactly at the request's completion.
      HostEvent(TracePhase::kCpuRead, 200, {32, 40}),
      // Overlap-free load while the request is still in flight.
      HostEvent(TracePhase::kCpuRead, 150, {64, 128}),
  }));
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

// ---- Invariant 2: persists order conflicting requests first -----------------

TEST(PpoCheckerSynthetic, Invariant2FlagsUnorderedPersistOverReadSet) {
  // The persist overlaps the in-flight request's *read* operand (the old
  // data an undo-log create is copying) and nothing retired the request.
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(9, TraceDevicePid(0), 100, 400, {4096, 8256}, {0, 4096}),
      HostEvent(TracePhase::kCpuPersist, 200, {0, 64}),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 2);
  EXPECT_EQ(violations[0].seq, 9u);
}

TEST(PpoCheckerSynthetic, Invariant2AcceptsRetiredRequest) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(9, TraceDevicePid(0), 100, 400, {4096, 8256}, {0, 4096}),
      DeviceInstant(TracePhase::kRetire, 9, TraceDevicePid(0), 190),
      HostEvent(TracePhase::kCpuPersist, 200, {0, 64}),
  }));
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerSynthetic, Invariant2RetireIsPerDevice) {
  // A retire on a different device does not order this device's copy of the
  // duplicated command.
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(9, TraceDevicePid(0), 100, 400, {4096, 8256}, {0, 4096}),
      DeviceInstant(TracePhase::kRetire, 9, TraceDevicePid(1), 190),
      HostEvent(TracePhase::kCpuPersist, 200, {0, 64}),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 2);
}

TEST(PpoCheckerSynthetic, WrappedRingsDoNotFabricateViolations) {
  // A span, its retire and a persist over the span's range, then enough
  // later chatter to wrap the ring past the retire. A stream that kept the
  // span but lost its retire would read as an unordered persist; the ring
  // only ever drops its oldest events, so the snapshot is a suffix of the
  // record stream and long runs never fabricate violations.
  TraceRecorderOptions options;
  options.ring_capacity = 2;
  TraceRecorder recorder(options);
  recorder.Record(UnitExec(7, TraceDevicePid(0), 100, 100, {0, 64}));
  recorder.Record(DeviceInstant(TracePhase::kRetire, 7, TraceDevicePid(0),
                                110));
  recorder.Record(HostEvent(TracePhase::kCpuPersist, 120, {0, 64}));
  recorder.Record(DeviceInstant(TracePhase::kFifoEnqueue, 8, TraceDevicePid(0),
                                130));
  recorder.Record(DeviceInstant(TracePhase::kFifoEnqueue, 9, TraceDevicePid(0),
                                140));
  ASSERT_GT(recorder.dropped(), 0u);
  const auto violations = PpoChecker{}.Check(recorder);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

// ---- Invariant 3: commits follow synchronization ----------------------------

TEST(PpoCheckerSynthetic, Invariant3FlagsEarlyLogDeletionAcrossDevices) {
  // Device 1 is still executing the duplicated request when device 0's
  // maintenance engine starts deleting the log -- the Section 2.3 hazard.
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(1, TraceDevicePid(0), 100, 100, {0, 64}),
      UnitExec(1, TraceDevicePid(1), 100, 300, {64, 128}),
      DeferredExec(2, TraceDevicePid(0), 250, 50, {1 << 20, (1 << 20) + 64}),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 3);
  EXPECT_EQ(violations[0].seq, 2u);
}

TEST(PpoCheckerSynthetic, Invariant3AcceptsDeletionAfterSync) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(1, TraceDevicePid(0), 100, 100, {0, 64}),
      UnitExec(1, TraceDevicePid(1), 100, 300, {64, 128}),
      DeferredExec(2, TraceDevicePid(0), 400, 50, {1 << 20, (1 << 20) + 64}),
  }));
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerSynthetic, Invariant3SkipsSingleDeviceEpochs) {
  // One device orders same-address work through its in-flight table; the
  // cross-device check does not apply.
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(1, TraceDevicePid(0), 100, 300, {0, 64}),
      DeferredExec(2, TraceDevicePid(0), 250, 50, {1 << 20, (1 << 20) + 64}),
  }));
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

// ---- Invariant 4: recovery replays exactly the in-flight window -------------

TEST(PpoCheckerSynthetic, Invariant4FlagsReplayWithoutCrash) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      DeviceInstant(TracePhase::kRecoveryReplay, 5, TraceDevicePid(0), 0),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 4);
}

TEST(PpoCheckerSynthetic, Invariant4AcceptsInFlightReplay) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(5, TraceDevicePid(0), 100, 400, {0, 64}),
      DeviceInstant(TracePhase::kCrash, 0, TraceDevicePid(0), 300),
      DeviceInstant(TracePhase::kCrashOutcome, 5, TraceDevicePid(0), 300,
                    kOutcomeLost),
      DeviceInstant(TracePhase::kRecoveryReplay, 5, TraceDevicePid(0), 300),
  }));
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerSynthetic, Invariant4FlagsDoubleReplay) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(5, TraceDevicePid(0), 100, 400, {0, 64}),
      DeviceInstant(TracePhase::kCrash, 0, TraceDevicePid(0), 300),
      DeviceInstant(TracePhase::kCrashOutcome, 5, TraceDevicePid(0), 300,
                    kOutcomeLost),
      DeviceInstant(TracePhase::kRecoveryReplay, 5, TraceDevicePid(0), 300),
      DeviceInstant(TracePhase::kRecoveryReplay, 5, TraceDevicePid(0), 300),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 4);
}

TEST(PpoCheckerSynthetic, Invariant4FlagsReplayOfUnissuedRequest) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      DeviceInstant(TracePhase::kCrash, 0, TraceDevicePid(0), 300),
      DeviceInstant(TracePhase::kRecoveryReplay, 9, TraceDevicePid(0), 300),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 4);
  EXPECT_EQ(violations[0].seq, 9u);
}

TEST(PpoCheckerSynthetic, Invariant4FlagsReplayOfDurableRequest) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(5, TraceDevicePid(0), 100, 150, {0, 64}),
      DeviceInstant(TracePhase::kCrash, 0, TraceDevicePid(0), 300),
      DeviceInstant(TracePhase::kCrashOutcome, 5, TraceDevicePid(0), 300,
                    kOutcomeDurable),
      DeviceInstant(TracePhase::kRecoveryReplay, 5, TraceDevicePid(0), 300),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 4);
}

// ---- Epoch handling and caps ------------------------------------------------

TEST(PpoCheckerSynthetic, EpochsAreCheckedIndependently) {
  // The span and the read overlap in timestamps but belong to different
  // epochs (clocks restarted in between) -- no relation between them.
  std::vector<TraceEvent> events = Sequenced({
      UnitExec(7, TraceDevicePid(0), 100, 100, {0, 64}),
      HostEvent(TracePhase::kCpuRead, 150, {32, 40}),
  });
  events[1].epoch = 1;
  const auto violations = PpoChecker{}.Check(events);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerSynthetic, MaxViolationsCapsTheReport) {
  PpoChecker checker;
  checker.max_violations = 1;
  const auto violations = checker.Check(Sequenced({
      UnitExec(7, TraceDevicePid(0), 100, 100, {0, 64}),
      HostEvent(TracePhase::kCpuRead, 110, {0, 8}),
      HostEvent(TracePhase::kCpuRead, 120, {8, 16}),
  }));
  EXPECT_EQ(violations.size(), 1u);
}

TEST(PpoCheckerSynthetic, ReportFormatsViolations) {
  EXPECT_NE(PpoChecker::Report({}).find("hold"), std::string::npos);
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(7, TraceDevicePid(0), 100, 100, {0, 64}),
      HostEvent(TracePhase::kCpuRead, 150, {32, 40}),
  }));
  const std::string report = PpoChecker::Report(violations);
  EXPECT_NE(report.find("invariant 1"), std::string::npos);
  EXPECT_NE(report.find("seq=7"), std::string::npos);
}

// ---- Cases the checker's span index must get right -------------------------

TEST(PpoCheckerSynthetic, Invariant2RetireRecordedBeforeItsSpanExemptsIt) {
  // The retire key is consulted at persist time, so a retire that the
  // recorder ordered ahead of the span still orders it.
  const auto violations = PpoChecker{}.Check(Sequenced({
      DeviceInstant(TracePhase::kRetire, 9, TraceDevicePid(0), 90),
      UnitExec(9, TraceDevicePid(0), 100, 400, {4096, 8256}, {0, 4096}),
      HostEvent(TracePhase::kCpuPersist, 200, {0, 64}),
  }));
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerSynthetic, Invariant2FlagsOnlyTheUnretiredSpanOnASharedRange) {
  // Many requests reuse one log slot; all but one were retired.
  std::vector<TraceEvent> events;
  for (std::uint64_t seq = 1; seq <= 32; ++seq) {
    events.push_back(UnitExec(seq, TraceDevicePid(0), 100, 400, {4096, 4160}));
    if (seq != 17) {
      events.push_back(DeviceInstant(TracePhase::kRetire, seq,
                                     TraceDevicePid(0), 110));
    }
  }
  events.push_back(HostEvent(TracePhase::kCpuPersist, 200, {4096, 4104}));
  const auto violations = PpoChecker{}.Check(Sequenced(std::move(events)));
  ASSERT_EQ(violations.size(), 1u) << PpoChecker::Report(violations);
  EXPECT_EQ(violations[0].invariant, 2);
  EXPECT_EQ(violations[0].seq, 17u);
}

TEST(PpoCheckerSynthetic, Invariant1ReadInTheLastLineOfALongSpanIsFlagged) {
  // A 4160-byte span (a page plus its log header) beside 8-byte ones: the
  // read touches only the long span's last line, far past its begin.
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(1, TraceDevicePid(0), 100, 10, {8184, 8192}),
      UnitExec(2, TraceDevicePid(0), 100, 100, {8192, 12352}),
      UnitExec(3, TraceDevicePid(0), 100, 100, {12336, 12344}),
      UnitExec(4, TraceDevicePid(0), 100, 100, {12352, 12360}),
      HostEvent(TracePhase::kCpuRead, 150, {12344, 12352}),
  }));
  ASSERT_EQ(violations.size(), 1u) << PpoChecker::Report(violations);
  EXPECT_EQ(violations[0].invariant, 1);
  EXPECT_EQ(violations[0].seq, 2u);
}

TEST(PpoCheckerSynthetic, OverlappingSpansAreReportedInIssueOrder) {
  // The first-issued span begins at the higher address.
  const auto violations = PpoChecker{}.Check(Sequenced({
      UnitExec(1, TraceDevicePid(0), 100, 300, {64, 128}),
      UnitExec(2, TraceDevicePid(0), 100, 300, {0, 128}),
      HostEvent(TracePhase::kCpuRead, 150, {64, 72}),
      HostEvent(TracePhase::kCpuPersist, 160, {64, 72}),
  }));
  ASSERT_EQ(violations.size(), 4u) << PpoChecker::Report(violations);
  EXPECT_EQ(violations[0].invariant, 1);
  EXPECT_EQ(violations[0].seq, 1u);
  EXPECT_EQ(violations[1].invariant, 1);
  EXPECT_EQ(violations[1].seq, 2u);
  EXPECT_EQ(violations[2].invariant, 2);
  EXPECT_EQ(violations[2].seq, 1u);
  EXPECT_EQ(violations[3].invariant, 2);
  EXPECT_EQ(violations[3].seq, 2u);
}

TEST(PpoCheckerSynthetic, Invariant4FlagsReplayWhoseOnlySpanFollowsTheCrash) {
  const auto violations = PpoChecker{}.Check(Sequenced({
      DeviceInstant(TracePhase::kCrash, 0, TraceDevicePid(0), 300),
      UnitExec(5, TraceDevicePid(0), 400, 100, {0, 64}),
      DeviceInstant(TracePhase::kRecoveryReplay, 5, TraceDevicePid(0), 500),
  }));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 4);
  EXPECT_EQ(violations[0].seq, 5u);
  EXPECT_NE(violations[0].detail.find("never issued before the crash"),
            std::string::npos)
      << violations[0].detail;
}

// ---- Differential check against the unindexed scans -------------------------

// The four invariant scans over every earlier span, with no index: the
// oracle the checker must match violation for violation.
std::vector<PpoViolation> ReferenceCheck(const std::vector<TraceEvent>& events,
                                         std::size_t max_violations,
                                         std::uint32_t disabled) {
  const auto key = [](std::uint64_t seq, std::uint32_t pid) {
    return (seq << 8) ^ pid;
  };
  std::vector<PpoViolation> all;
  std::size_t i = 0;
  while (i < events.size() && all.size() < max_violations) {
    const std::uint32_t epoch = events[i].epoch;
    const std::size_t cap = max_violations - all.size();
    std::vector<PpoViolation> found;
    std::vector<const TraceEvent*> spans;
    std::unordered_set<std::uint64_t> retired;
    std::set<std::uint32_t> device_pids;
    const TraceEvent* crash = nullptr;
    std::unordered_set<std::uint64_t> replayed;
    std::unordered_map<std::uint64_t, bool> any_non_durable;
    const auto full = [&] { return found.size() >= cap; };
    const auto add = [&](int invariant, const TraceEvent& at,
                         std::uint64_t seq, std::string detail) {
      if (!full() && (disabled & (1u << (invariant - 1))) == 0) {
        found.push_back(
            PpoViolation{invariant, seq, at.epoch, at.ts, std::move(detail)});
      }
    };
    for (; i < events.size() && events[i].epoch == epoch; ++i) {
      const TraceEvent& e = events[i];
      if (full()) {
        continue;
      }
      switch (e.phase) {
        case TracePhase::kUnitExec:
        case TracePhase::kDeferredExec:
          device_pids.insert(e.pid);
          if (e.phase == TracePhase::kDeferredExec && device_pids.size() >= 2) {
            for (const TraceEvent* s : spans) {
              if (s->phase == TracePhase::kUnitExec && e.ts < s->end()) {
                add(3, e, e.seq,
                    "log deletion seq=" + std::to_string(e.seq) +
                        " executes at t=" + std::to_string(e.ts) +
                        " before earlier request seq=" +
                        std::to_string(s->seq) + " completes at t=" +
                        std::to_string(s->end()) +
                        " (commit not ordered behind synchronization)");
                if (full()) break;
              }
            }
          }
          spans.push_back(&e);
          break;
        case TracePhase::kRetire:
          retired.insert(key(e.seq, e.pid));
          break;
        case TracePhase::kCpuRead:
          for (const TraceEvent* s : spans) {
            if (s->range.Overlaps(e.range) && e.ts < s->end()) {
              add(1, e, s->seq,
                  "CPU load at t=" + std::to_string(e.ts) +
                      " observes addresses request seq=" +
                      std::to_string(s->seq) + " is still writing until t=" +
                      std::to_string(s->end()));
              if (full()) break;
            }
          }
          break;
        case TracePhase::kCpuPersist:
          for (const TraceEvent* s : spans) {
            if ((s->range.Overlaps(e.range) || s->range2.Overlaps(e.range)) &&
                e.ts < s->end() && !retired.contains(key(s->seq, s->pid))) {
              add(2, e, s->seq,
                  "CPU persist at t=" + std::to_string(e.ts) +
                      " overlaps in-flight request seq=" +
                      std::to_string(s->seq) + " (completes t=" +
                      std::to_string(s->end()) + ") without ordering it first");
              if (full()) break;
            }
          }
          break;
        case TracePhase::kCrash:
          crash = &e;
          break;
        case TracePhase::kCrashOutcome:
          if (e.arg0 != kOutcomeDurable) {
            any_non_durable[e.seq] = true;
          } else {
            any_non_durable.emplace(e.seq, false);
          }
          break;
        case TracePhase::kRecoveryReplay: {
          const std::string req = "request seq=" + std::to_string(e.seq);
          if (crash == nullptr) {
            add(4, e, e.seq, "recovery replay without a preceding crash");
          } else if (!replayed.insert(e.seq).second) {
            add(4, e, e.seq, req + " replayed twice");
          } else if (std::none_of(spans.begin(), spans.end(),
                                  [&](const TraceEvent* s) {
                                    return s->seq == e.seq &&
                                           s->order < crash->order;
                                  })) {
            add(4, e, e.seq,
                "replayed " + req + " was never issued before the crash");
          } else if (auto it = any_non_durable.find(e.seq);
                     it != any_non_durable.end() && !it->second) {
            add(4, e, e.seq,
                req + " was already durable on every device yet was replayed");
          }
          break;
        }
        default:
          break;
      }
    }
    all.insert(all.end(), found.begin(), found.end());
  }
  return all;
}

// A random trace over a few epochs. Small seq and pid pools make spans share
// retire keys (pid 272 collides seq 2k with seq 2k+1 on pid 16), and retires
// land before and after their spans. Most ranges are 8-byte aligned, so many
// touch without overlapping; some are empty or inverted, some spans also
// carry a read set, and one length is a 4160-byte page-plus-header. Times
// mostly sit on a coarse grid so span ends and event times often coincide.
std::vector<TraceEvent> RandomTrace(Rng& rng) {
  constexpr std::uint32_t kPids[] = {TraceDevicePid(0), TraceDevicePid(1),
                                     272};
  constexpr std::uint64_t kLens[] = {0, 8, 8, 8, 16, 64, 4160};
  const auto range = [&] {
    const PmAddr begin = (rng.NextBool(0.8) ? 8 * rng.NextBounded(24)
                                            : 4096 + 8 * rng.NextBounded(40)) +
                         (rng.NextBool(0.1) ? rng.NextBounded(8) : 0);
    if (rng.NextBool(0.03)) {
      return AddrRange{begin + 8, begin};  // inverted: empty
    }
    return AddrRange{begin, begin + kLens[rng.NextBounded(7)]};
  };
  const auto time = [&](std::uint64_t slots) {
    return 8 * rng.NextBounded(slots) +
           (rng.NextBool(0.2) ? rng.NextBounded(8) : 0);
  };
  const auto seq = [&] { return 1 + rng.NextBounded(6); };
  const auto pid = [&] { return kPids[rng.NextBounded(3)]; };
  std::vector<TraceEvent> events(8 + rng.NextBounded(40));
  std::uint32_t epoch = 0;
  for (TraceEvent& e : events) {
    if (rng.NextBool(0.04)) {
      ++epoch;
    }
    const SimTime ts = time(50);
    const std::uint64_t kind = rng.NextBounded(100);
    if (kind < 28) {
      e = rng.NextBool(0.85)
              ? UnitExec(seq(), pid(), ts, time(25), range(),
                         rng.NextBool(0.5) ? range() : AddrRange{})
              : DeferredExec(seq(), pid(), ts, time(25), range());
    } else if (kind < 42) {
      e = DeviceInstant(TracePhase::kRetire, seq(), pid(), ts);
    } else if (kind < 60) {
      e = HostEvent(TracePhase::kCpuRead, ts, range());
    } else if (kind < 80) {
      e = HostEvent(TracePhase::kCpuPersist, ts, range());
    } else if (kind < 83) {
      e = DeviceInstant(TracePhase::kCrash, 0, pid(), ts);
    } else if (kind < 89) {
      e = DeviceInstant(TracePhase::kCrashOutcome, seq(), pid(), ts,
                        rng.NextBounded(3));
    } else if (kind < 97) {
      e = DeviceInstant(TracePhase::kRecoveryReplay, rng.NextBounded(8),
                        pid(), ts);
    } else {
      e = HostEvent(TracePhase::kCpuWrite, ts, range());
    }
    e.epoch = epoch;
  }
  return Sequenced(std::move(events));
}

TEST(PpoCheckerDifferential, MatchesUnindexedScansOnRandomTraces) {
  Rng rng(0xc0ffee);
  std::array<std::size_t, 5> by_invariant{};
  std::size_t capped = 0;
  for (std::uint32_t trial = 0; trial < 20000; ++trial) {
    const std::vector<TraceEvent> events = RandomTrace(rng);
    PpoChecker checker;
    checker.disable_invariants = trial % 16;
    checker.max_violations = 1 + (trial / 16) % 70;
    const auto expected = ReferenceCheck(events, checker.max_violations,
                                         checker.disable_invariants);
    ASSERT_EQ(PpoChecker::Report(checker.Check(events)),
              PpoChecker::Report(expected))
        << "trial " << trial << " mask " << checker.disable_invariants
        << " max " << checker.max_violations;
    for (const PpoViolation& v : expected) {
      ++by_invariant[v.invariant];
    }
    capped += expected.size() == checker.max_violations ? 1 : 0;
  }
  // The sweep exercises every invariant and the cap, not just clean traces.
  for (int invariant = 1; invariant <= 4; ++invariant) {
    EXPECT_GT(by_invariant[invariant], 1000u) << "invariant " << invariant;
  }
  EXPECT_GT(capped, 500u);
}

// ---- Real schedules: enforced runs are clean, the ablation is caught --------

// The Section 2.3 scenario at runtime level: an undo-log create is in flight
// near memory while the CPU immediately loads the log slot the device is
// still writing. With PPO the load stalls (Invariant 1); without it the load
// races the device.
std::vector<PpoViolation> RunAblationSchedule(bool enforce_ppo) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.enforce_ppo = enforce_ppo;
  options.pm_size = 16ull << 20;
  Runtime rt(options);
  TraceRecorder recorder;
  rt.AttachTrace(&recorder);
  auto pool = rt.RegisterPool(0, 1 << 20);
  EXPECT_TRUE(pool.ok());

  const PmAddr slot = 512 * 1024;
  EXPECT_TRUE(rt.UndologCreate(*pool, 0, /*tx_id=*/1, /*old_data=*/0,
                               /*size=*/4096, slot)
                  .ok());
  // Load the slot header the device is still writing.
  (void)rt.Load<std::uint64_t>(0, slot);
  const PmAddr slots[] = {slot};
  EXPECT_TRUE(rt.CommitLog(*pool, 0, slots).ok());
  rt.DrainDevices(0);
  return PpoChecker{}.Check(recorder);
}

TEST(PpoCheckerRuntime, EnforcedScheduleChecksClean) {
  const auto violations = RunAblationSchedule(/*enforce_ppo=*/true);
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerHistory, WrappedRingYieldsInsufficientHistory) {
  // A tiny recorder ring wraps while the ablation schedule runs; the
  // surviving snapshot starts mid-stream. Demanding full history must turn
  // that into an explicit invariant-0 verdict instead of a silent (and
  // unsound) pass over the tail.
  RuntimeOptions options;
  options.num_devices = 2;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.enforce_ppo = false;
  options.pm_size = 16ull << 20;
  Runtime rt(options);
  TraceRecorderOptions trace_options;
  trace_options.ring_capacity = 4;  // guaranteed wrap on any real schedule
  TraceRecorder recorder(trace_options);
  rt.AttachTrace(&recorder);
  auto pool = rt.RegisterPool(0, 1 << 20);
  ASSERT_TRUE(pool.ok());
  const PmAddr slot = 512 * 1024;
  ASSERT_TRUE(rt.UndologCreate(*pool, 0, /*tx_id=*/1, /*old_data=*/0,
                               /*size=*/4096, slot)
                  .ok());
  (void)rt.Load<std::uint64_t>(0, slot);
  const PmAddr slots[] = {slot};
  ASSERT_TRUE(rt.CommitLog(*pool, 0, slots).ok());
  rt.DrainDevices(0);
  // Overrun the host thread's track so the earliest events (the undo-log
  // issue and the racing load above) are overwritten.
  const std::array<std::uint8_t, 8> fill{0x11, 0x11, 0x11, 0x11,
                                         0x11, 0x11, 0x11, 0x11};
  for (int i = 0; i < 8; ++i) {
    rt.Write(0, static_cast<PmAddr>(i) * 64, fill);
  }

  const std::vector<TraceEvent> snapshot = recorder.Snapshot();
  ASSERT_FALSE(snapshot.empty());
  ASSERT_GT(snapshot.front().order, 1u) << "ring did not wrap";

  PpoChecker strict;
  strict.require_full_history = true;
  const auto violations = strict.Check(snapshot);
  ASSERT_EQ(violations.size(), 1u) << PpoChecker::Report(violations);
  EXPECT_EQ(violations.front().invariant, 0);

  // The default (trimmed-tail audit) mode must not fabricate the verdict.
  for (const PpoViolation& v : PpoChecker{}.Check(snapshot)) {
    EXPECT_NE(v.invariant, 0) << v.detail;
  }
}

TEST(PpoCheckerHistory, FullSnapshotPassesStrictMode) {
  // Same schedule, ample ring: strict mode must not fire invariant 0.
  const auto violations = [] {
    RuntimeOptions options;
    options.num_devices = 2;
    options.mode = ExecMode::kNdpMultiDelayed;
    options.enforce_ppo = true;
    options.pm_size = 16ull << 20;
    Runtime rt(options);
    TraceRecorder recorder;
    rt.AttachTrace(&recorder);
    auto pool = rt.RegisterPool(0, 1 << 20);
    const PmAddr slot = 512 * 1024;
    (void)rt.UndologCreate(*pool, 0, 1, 0, 4096, slot);
    const PmAddr slots[] = {slot};
    (void)rt.CommitLog(*pool, 0, slots);
    rt.DrainDevices(0);
    PpoChecker strict;
    strict.require_full_history = true;
    return strict.Check(recorder);
  }();
  EXPECT_TRUE(violations.empty()) << PpoChecker::Report(violations);
}

TEST(PpoCheckerRuntime, AblationWithoutPpoIsDetected) {
  const auto violations = RunAblationSchedule(/*enforce_ppo=*/false);
  ASSERT_FALSE(violations.empty());
  bool saw_invariant1 = false;
  for (const PpoViolation& v : violations) {
    if (v.invariant == 1) {
      saw_invariant1 = true;
    }
  }
  EXPECT_TRUE(saw_invariant1) << PpoChecker::Report(violations);
}

}  // namespace
}  // namespace nearpm
