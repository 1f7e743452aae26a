// PM-Sanitizer tests: one deliberately buggy mini-workload per rule (each
// must fire exactly its rule), clean runs over the mechanism matrix, the
// suppression round-trip, output rendering (SARIF shape), the dirty-range
// merge that de-duplicates provider persists, and offline trace analysis
// equivalence.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analyze/sanitizer.h"
#include "src/analyze/trace_analyzer.h"
#include "src/common/rng.h"
#include "src/core/runtime.h"
#include "src/fuzz/crash_fuzzer.h"
#include "src/pmlib/heap.h"

namespace nearpm {
namespace {

using analyze::PmSanitizer;
using analyze::RuleId;

RuntimeOptions Opts(bool enforce_ppo = true,
                    ExecMode mode = ExecMode::kNdpMultiDelayed) {
  RuntimeOptions o;
  o.mode = mode;
  o.pm_size = 16ull << 20;
  o.enforce_ppo = enforce_ppo;
  return o;
}

// Asserts that exactly `rule` fired (>= 1 occurrence) and nothing else did.
void ExpectOnly(const PmSanitizer& san, RuleId rule) {
  for (int i = 0; i < analyze::kNumRules; ++i) {
    const auto r = static_cast<RuleId>(i);
    if (r == rule) {
      EXPECT_GE(san.sink().count(r), 1u) << analyze::RuleIdString(r);
    } else {
      EXPECT_EQ(san.sink().count(r), 0u) << analyze::RuleIdString(r);
    }
  }
}

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

struct Fixture {
  explicit Fixture(const RuntimeOptions& opts) : rt(opts) {
    rt.AttachSanitizer(&san);
    auto p = rt.RegisterPool(0, 8ull << 20);
    EXPECT_TRUE(p.ok());
    pool = *p;
  }
  PmAddr slot(int i) const {
    return (1ull << 20) + static_cast<PmAddr>(i) * kSlotSize;
  }
  PmSanitizer san;
  Runtime rt;
  PoolId pool = 0;
};

// ---- NPM001: durable-scope read of unpersisted data -------------------------

TEST(PmSanitizerRules, Npm001DurableReadOfUnpersistedData) {
  Fixture f(Opts());
  const auto data = Bytes(64, 1);
  f.rt.Write(0, 4096, data);  // never persisted
  f.san.BeginDurableScope();
  std::vector<std::uint8_t> out(64);
  f.rt.Read(0, 4096, out);
  f.san.EndDurableScope();
  ExpectOnly(f.san, RuleId::kNpm001);
}

TEST(PmSanitizerRules, Npm001SilentWhenPersistedFirst) {
  Fixture f(Opts());
  const auto data = Bytes(64, 1);
  f.rt.Write(0, 4096, data);
  f.rt.Persist(0, 4096, 64);
  f.san.BeginDurableScope();
  std::vector<std::uint8_t> out(64);
  f.rt.Read(0, 4096, out);
  f.san.EndDurableScope();
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u);
}

// ---- NPM002: doorbell before operand persist --------------------------------

TEST(PmSanitizerRules, Npm002DoorbellBeforeOperandPersist) {
  // Only reachable with PPO off: the enforced runtime writes pending operand
  // lines back (software-managed coherence) before ringing the doorbell.
  Fixture f(Opts(/*enforce_ppo=*/false));
  const auto data = Bytes(256, 3);
  f.rt.Write(0, 4096, data);  // dirty in the store buffer
  EXPECT_TRUE(f.rt.RawCopy(f.pool, 0, 4096, 64 * 1024, 256,
                           /*wait=*/true).ok());
  ExpectOnly(f.san, RuleId::kNpm002);
}

TEST(PmSanitizerRules, Npm002SilentUnderPpo) {
  // Same program with PPO enforced: CoherenceWriteback cleans the operands,
  // so the doorbell is sound and nothing fires.
  Fixture f(Opts(/*enforce_ppo=*/true));
  const auto data = Bytes(256, 3);
  f.rt.Write(0, 4096, data);
  EXPECT_TRUE(f.rt.RawCopy(f.pool, 0, 4096, 64 * 1024, 256,
                           /*wait=*/true).ok());
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u);
}

// ---- NPM003: CPU read racing an in-flight NDP write -------------------------

TEST(PmSanitizerRules, Npm003ReadRacesInflightNdpWrite) {
  Fixture f(Opts(/*enforce_ppo=*/false));
  const auto data = Bytes(256, 5);
  f.rt.Write(0, 4096, data);
  f.rt.Persist(0, 4096, 256);  // operands are clean: no NPM002
  EXPECT_TRUE(f.rt.RawCopy(f.pool, 0, 4096, 64 * 1024, 256,
                           /*wait=*/false).ok());
  std::vector<std::uint8_t> out(256);
  f.rt.Read(0, 64 * 1024, out);  // destination still being written
  ExpectOnly(f.san, RuleId::kNpm003);
}

TEST(PmSanitizerRules, Npm003SilentUnderPpo) {
  // The host-access barrier retires the conflicting request before the read.
  Fixture f(Opts(/*enforce_ppo=*/true));
  const auto data = Bytes(256, 5);
  f.rt.Write(0, 4096, data);
  f.rt.Persist(0, 4096, 256);
  EXPECT_TRUE(f.rt.RawCopy(f.pool, 0, 4096, 64 * 1024, 256,
                           /*wait=*/false).ok());
  std::vector<std::uint8_t> out(256);
  f.rt.Read(0, 64 * 1024, out);
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u);
}

// ---- NPM004: commit racing un-synchronized cross-device requests ------------

TEST(PmSanitizerRules, Npm004CommitWithoutCrossDeviceSync) {
  Fixture f(Opts(/*enforce_ppo=*/false));
  // A log write on device 0 (stripe 256: even stripes land on device 0).
  const auto data = Bytes(256, 7);
  f.rt.Write(0, 0, data);
  f.rt.Persist(0, 0, 256);
  const PmAddr slot_dev0 = 1ull << 20;  // stripe 4096 -> device 0
  EXPECT_TRUE(
      f.rt.UndologCreate(f.pool, 0, /*tx_id=*/1, 0, 256, slot_dev0).ok());
  // Commit a slot header on device 1 while the device-0 log write is still
  // in flight and no sync marker separates them.
  const PmAddr slot_dev1 = (1ull << 20) + 256;  // stripe 4097 -> device 1
  const std::vector<PmAddr> slots{slot_dev1};
  EXPECT_TRUE(f.rt.CommitLog(f.pool, 0, slots).ok());
  ExpectOnly(f.san, RuleId::kNpm004);
}

TEST(PmSanitizerRules, Npm004SilentWithDelayedSync) {
  // PPO's delayed synchronization plants a marker before the commit, so the
  // in-flight log write is ordered and the commit is sound.
  Fixture f(Opts(/*enforce_ppo=*/true));
  const auto data = Bytes(256, 7);
  f.rt.Write(0, 0, data);
  f.rt.Persist(0, 0, 256);
  EXPECT_TRUE(
      f.rt.UndologCreate(f.pool, 0, /*tx_id=*/1, 0, 256, 1ull << 20).ok());
  const std::vector<PmAddr> slots{(1ull << 20) + 256};
  EXPECT_TRUE(f.rt.CommitLog(f.pool, 0, slots).ok());
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u);
}

// ---- NPM005: redundant clwb/fence -------------------------------------------

TEST(PmSanitizerRules, Npm005RedundantPersist) {
  Fixture f(Opts());
  const auto data = Bytes(64, 9);
  f.rt.Write(0, 4096, data);
  f.rt.Persist(0, 4096, 64);
  f.rt.Persist(0, 4096, 64);  // nothing left to flush
  ExpectOnly(f.san, RuleId::kNpm005);
}

// ---- NPM006: unflushed lines at a durability point --------------------------

TEST(PmSanitizerRules, Npm006UnflushedLineAtDurablePoint) {
  Fixture f(Opts());
  PoolArena arena(2ull << 20);
  HeapOptions ho;
  ho.mechanism = Mechanism::kLogging;
  auto heap = PersistentHeap::Create(f.rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE((*heap)->BeginOp(0).ok());
  ASSERT_TRUE((*heap)->Store<std::uint64_t>(0, (*heap)->root(), 42).ok());
  // The bug: a store issued past the heap, invisible to the provider's
  // commit-time persist. The mechanism's durable point does not cover it.
  f.rt.Store<std::uint64_t>(0, (*heap)->root() + 8 * kCacheLineSize, 43);
  ASSERT_TRUE((*heap)->CommitOp(0).ok());
  ExpectOnly(f.san, RuleId::kNpm006);
}

TEST(PmSanitizerRules, Npm006UnflushedLineAtFinish) {
  Fixture f(Opts());
  const auto data = Bytes(64, 11);
  f.rt.Write(0, 4096, data);  // outside any operation, never persisted
  f.san.Finish(f.rt.Now(0));
  ExpectOnly(f.san, RuleId::kNpm006);
}

TEST(PmSanitizerRules, Npm007DoorbellBeforeRecordPersisted) {
  // One-sided redo replication: the primary wrote the redo record into the
  // backup's intent region but rang the replay doorbell before persisting
  // it -- the ack the doorbell implies races the record.
  PmSanitizer san;
  const AddrRange record{4096, 4096 + 128};
  san.OnCpuWrite(0, record, /*now=*/10, {});
  san.OnReplDoorbell(0, record, /*now=*/20);
  ExpectOnly(san, RuleId::kNpm007);
}

TEST(PmSanitizerRules, Npm007SilentWhenRecordPersistedFirst) {
  PmSanitizer san;
  const AddrRange record{4096, 4096 + 128};
  san.OnCpuWrite(0, record, /*now=*/10, {});
  san.OnFlush(0, record, /*now=*/20, {});
  san.OnFence(0);
  san.OnReplDoorbell(0, record, /*now=*/30);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 0u);
  EXPECT_EQ(san.sink().total_unsuppressed(), 0u);
}

TEST(PmSanitizerRules, Npm007CountsEachHazardousDoorbell) {
  PmSanitizer san;
  const AddrRange a{4096, 4096 + 64};
  const AddrRange b{8192, 8192 + 64};
  san.OnCpuWrite(0, a, 10, {});
  san.OnCpuWrite(0, b, 11, {});
  san.OnReplDoorbell(0, a, 20);
  san.OnReplDoorbell(0, b, 21);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 2u);
}

// ---- NPM004 deferred-maintenance exemption boundary -------------------------

TEST(PmSanitizerEdge, Npm004DeferredMaintenanceSliceIsExempt) {
  // The only in-flight work on the other device is a maintenance (deferred
  // log-deletion) slice: commits racing each other's deletions is not the
  // hazard NPM004 targets, so the commit-class doorbell stays clean.
  PmSanitizer san;
  san.OnDeviceExecute(1, /*seq=*/7, {4096, 4096 + 64}, /*completion=*/500,
                      /*deferred=*/true);
  san.OnNdpCommand(0, {}, {8192, 8192 + 64}, /*now=*/100,
                   /*commit_class=*/true, /*touched_devices=*/1u << 0, {});
  EXPECT_EQ(san.sink().count(RuleId::kNpm004), 0u);
}

TEST(PmSanitizerEdge, Npm004ExemptionIsPerSliceNotPerDevice) {
  // A deferred slice on the device does not shield a *unit* (log-write)
  // slice that is also still in flight there.
  PmSanitizer san;
  san.OnDeviceExecute(1, /*seq=*/7, {4096, 4096 + 64}, 500,
                      /*deferred=*/true);
  san.OnDeviceExecute(1, /*seq=*/8, {4160, 4160 + 64}, 600,
                      /*deferred=*/false);
  san.OnNdpCommand(0, {}, {8192, 8192 + 64}, 100, true, 1u << 0, {});
  EXPECT_EQ(san.sink().count(RuleId::kNpm004), 1u);
}

TEST(PmSanitizerEdge, Npm004SyncMarkerBoundary) {
  // A request issued *before* the latest sync marker belongs to an already
  // synchronized generation: the commit is ordered behind it by the delayed
  // sync, so only same-generation requests (after_sync == last marker) fire.
  PmSanitizer san;
  san.OnDeviceExecute(1, /*seq=*/7, {4096, 4096 + 64}, 500);
  san.OnSyncMarker(1);
  san.OnNdpCommand(0, {}, {8192, 8192 + 64}, 100, true, 1u << 0, {});
  EXPECT_EQ(san.sink().count(RuleId::kNpm004), 0u);
  // A request issued after the marker is un-synchronized again.
  san.OnDeviceExecute(1, /*seq=*/9, {4224, 4224 + 64}, 700);
  san.OnNdpCommand(0, {}, {8192, 8192 + 64}, 200, true, 1u << 0, {});
  EXPECT_EQ(san.sink().count(RuleId::kNpm004), 1u);
}

TEST(PmSanitizerEdge, Npm004SyncCompleteRetiresEarlierGenerations) {
  // OnSyncComplete retires every request issued before the completed sync;
  // a commit after that must be clean even without per-request retires.
  PmSanitizer san;
  san.OnDeviceExecute(1, /*seq=*/7, {4096, 4096 + 64}, 500);
  san.OnSyncMarker(1);
  san.OnDeviceExecute(1, /*seq=*/8, {4160, 4160 + 64}, 600);
  san.OnSyncComplete(1);  // retires seq=7 (generation 0), not seq=8
  san.OnSyncMarker(2);
  san.OnNdpCommand(0, {}, {8192, 8192 + 64}, 700, true, 1u << 0, {});
  EXPECT_EQ(san.sink().count(RuleId::kNpm004), 0u);
}

TEST(PmSanitizerEdge, Npm004ParticipatingDeviceIsExempt) {
  // The command's own target devices order the commit through their
  // dispatch queues; only *other* devices' in-flight work fires.
  PmSanitizer san;
  san.OnDeviceExecute(1, /*seq=*/7, {4096, 4096 + 64}, 500);
  san.OnNdpCommand(0, {}, {8192, 8192 + 64}, 100, true,
                   /*touched_devices=*/(1u << 0) | (1u << 1), {});
  EXPECT_EQ(san.sink().count(RuleId::kNpm004), 0u);
}

// ---- NPM007 at the persist boundary -----------------------------------------

TEST(PmSanitizerEdge, Npm007FiresBetweenFlushAndFence) {
  // clwb without the fence is not durability: a doorbell in the window
  // between the flush and the fence still races the record.
  PmSanitizer san;
  const AddrRange record{4096, 4096 + 64};
  san.OnCpuWrite(0, record, 10, {});
  san.OnFlush(0, record, 20, {});
  san.OnReplDoorbell(0, record, 25);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 1u);
  // After the fence the same doorbell is clean.
  san.OnFence(0);
  san.OnReplDoorbell(0, record, 30);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 1u);
}

TEST(PmSanitizerEdge, Npm007SplitsExactlyAtLineBoundary) {
  // Two dirty lines; only the first is persisted. A doorbell over the
  // persisted line is clean, one over the still-dirty neighbour fires --
  // the line accounting must not bleed across the 64-byte boundary.
  PmSanitizer san;
  san.OnCpuWrite(0, {4096, 4096 + 128}, 10, {});
  san.OnFlush(0, {4096, 4096 + 64}, 20, {});
  san.OnFence(0);
  san.OnReplDoorbell(0, {4096, 4096 + 64}, 30);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 0u);
  san.OnReplDoorbell(0, {4096 + 64, 4096 + 128}, 31);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 1u);
}

TEST(PmSanitizerEdge, Npm007RangeEndingAtDirtyLineIsClean) {
  // The doorbell range ends exactly where the dirty line starts: half-open
  // ranges must not count the neighbour.
  PmSanitizer san;
  san.OnCpuWrite(0, {4096, 4096 + 64}, 10, {});
  san.OnReplDoorbell(0, {4096 - 64, 4096}, 20);
  EXPECT_EQ(san.sink().count(RuleId::kNpm007), 0u);
}

// ---- Clean runs -------------------------------------------------------------

class CleanHeapRun : public ::testing::TestWithParam<Mechanism> {};

TEST_P(CleanHeapRun, MechanismRoundIsAnalyzerClean) {
  Fixture f(Opts());
  PoolArena arena(2ull << 20);
  HeapOptions ho;
  ho.mechanism = GetParam();
  ho.ckpt_epoch_ops = 4;
  auto heap = PersistentHeap::Create(f.rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*heap)->BeginOp(0).ok());
    ASSERT_TRUE(
        (*heap)->Store<std::uint64_t>(0, (*heap)->root() + 8 * i, i).ok());
    ASSERT_TRUE((*heap)->CommitOp(0).ok());
  }
  f.rt.DrainDevices(0);
  f.san.Finish(f.rt.Now(0));
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u)
      << f.san.sink().RenderText();
  EXPECT_GT(f.san.stats().writes, 0u);
  EXPECT_GT(f.san.stats().fences, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, CleanHeapRun,
                         ::testing::Values(Mechanism::kLogging,
                                           Mechanism::kRedoLogging,
                                           Mechanism::kCheckpointing,
                                           Mechanism::kShadowPaging),
                         [](const auto& p) {
                           return std::string(MechanismName(p.param));
                         });

TEST(PmSanitizerClean, CrashRecoveryRoundTrip) {
  Fixture f(Opts());
  PoolArena arena(2ull << 20);
  HeapOptions ho;
  ho.mechanism = Mechanism::kLogging;
  auto heap = PersistentHeap::Create(f.rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*heap)->BeginOp(0).ok());
    ASSERT_TRUE(
        (*heap)->Store<std::uint64_t>(0, (*heap)->root() + 8 * i, i).ok());
    ASSERT_TRUE((*heap)->CommitOp(0).ok());
  }
  CrashPlan plan;  // all pending lines dropped
  f.rt.InjectCrashAt(plan);
  (*heap)->DropVolatile();
  // Recovery runs inside the sanitizer's durable scope; it must only read
  // persisted state, and the post-crash shadow map is empty by definition.
  ASSERT_TRUE((*heap)->Recover().ok());
  f.san.Finish(f.rt.Now(0));
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u)
      << f.san.sink().RenderText();
}

// ---- Fuzzer integration -----------------------------------------------------

TEST(PmSanitizerFuzz, SoundCaseIsClean) {
  PmSanitizer san;
  fuzz::FuzzConfig config;
  config.sanitizer = &san;
  const fuzz::CrashFuzzer fuzzer(config);
  fuzz::FuzzCase c;
  c.seed = 1;
  c.total_ops = 4;
  c.crash_step = 2;
  const fuzz::CaseResult result = fuzzer.Run(c);
  EXPECT_TRUE(result.ok()) << result.detail;
  EXPECT_EQ(san.sink().total_unsuppressed(), 0u) << san.sink().RenderText();
  EXPECT_GT(san.stats().writes, 0u);
}

TEST(PmSanitizerFuzz, PpoAblationFires) {
  PmSanitizer san;
  fuzz::FuzzConfig config;
  config.enforce_ppo = false;
  config.sanitizer = &san;
  const fuzz::CrashFuzzer fuzzer(config);
  fuzz::FuzzCase c;
  c.seed = 1;
  c.total_ops = 4;
  c.crash_step = 2;
  (void)fuzzer.Run(c);  // the oracle may or may not flag this exact schedule
  EXPECT_GE(san.sink().total_unsuppressed(), 1u);
}

// ---- Suppressions -----------------------------------------------------------

TEST(DiagnosticSink, SuppressionRoundTrip) {
  Fixture f(Opts());
  ASSERT_TRUE(f.san.sink().Suppress("NPM005"));
  const auto data = Bytes(64, 9);
  f.rt.Write(0, 4096, data);
  f.rt.Persist(0, 4096, 64);
  f.rt.Persist(0, 4096, 64);
  EXPECT_EQ(f.san.sink().total_unsuppressed(), 0u);
  EXPECT_EQ(f.san.sink().suppressed_count(RuleId::kNpm005), 1u);
  // The finding is still carried (marked) in the reports.
  EXPECT_NE(f.san.sink().RenderText().find("[suppressed]"), std::string::npos);
}

TEST(DiagnosticSink, FileScopedSuppression) {
  analyze::DiagnosticSink sink;
  ASSERT_TRUE(sink.Suppress("NPM005:heap.cc"));
  EXPECT_FALSE(sink.Report(RuleId::kNpm005,
                           {"/abs/build/src/pmlib/heap.cc", 10, "f"}, 0, 0,
                           AddrRange{}, "in heap"));
  EXPECT_TRUE(sink.Report(RuleId::kNpm005,
                          {"/abs/build/src/pmlib/pool.cc", 10, "f"}, 0, 0,
                          AddrRange{}, "elsewhere"));
  EXPECT_FALSE(sink.Suppress("NPM999"));
  EXPECT_FALSE(sink.Suppress("bogus"));
}

// ---- Rendering --------------------------------------------------------------

TEST(DiagnosticSink, SarifShape) {
  analyze::DiagnosticSink sink;
  ASSERT_TRUE(sink.Suppress("NPM006"));
  sink.Report(RuleId::kNpm005, {"src/x.cc", 12, "f"}, 0, 100, AddrRange{0, 64},
              "redundant persist");
  sink.Report(RuleId::kNpm006, {"src/y.cc", 34, "g"}, 0, 200, AddrRange{},
              "left dirty");
  const std::string sarif = sink.RenderSarif();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"nearpm-analyze\""), std::string::npos);
  // Full rule table, in order, regardless of what fired.
  for (int i = 0; i < analyze::kNumRules; ++i) {
    std::string id = "\"id\": \"";
    id += analyze::RuleIdString(static_cast<RuleId>(i));
    EXPECT_NE(sarif.find(id), std::string::npos) << id;
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"NPM005\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\": [{\"kind\": \"inSource\"}]"),
            std::string::npos);
  const std::string json = sink.RenderJson();
  EXPECT_NE(json.find("\"schema\": \"nearpm-analyze-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_unsuppressed\": 1"), std::string::npos);
}

TEST(DiagnosticSink, FoldsRepeatedFindings) {
  analyze::DiagnosticSink sink;
  for (int i = 0; i < 5; ++i) {
    sink.Report(RuleId::kNpm005, {"src/x.cc", 12, "f"}, 0, i, AddrRange{},
                "same site");
  }
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].count, 5u);
  EXPECT_EQ(sink.count(RuleId::kNpm005), 5u);
}

TEST(TrimSourcePathTest, FindsRepoRoot) {
  EXPECT_EQ(analyze::TrimSourcePath("/home/u/repo/src/pmlib/heap.cc"),
            "src/pmlib/heap.cc");
  EXPECT_EQ(analyze::TrimSourcePath("tests/analyze_test.cc"),
            "tests/analyze_test.cc");
  EXPECT_EQ(analyze::TrimSourcePath("unrelated/path.cc"), "unrelated/path.cc");
}

// ---- Dirty-range merge (the NPM005 fix in the heap commit path) -------------

TEST(MergeDirtyRanges, CoalescesSameLineStores) {
  std::vector<AddrRange> dirty;
  for (int i = 0; i < 8; ++i) {
    dirty.push_back(AddrRange{4096 + static_cast<PmAddr>(i) * 8,
                              4096 + static_cast<PmAddr>(i) * 8 + 8});
  }
  const auto merged = MergeDirtyRanges(dirty);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].begin, 4096u);
  EXPECT_EQ(merged[0].end, 4096u + kCacheLineSize);
}

TEST(MergeDirtyRanges, SortsAndMergesAdjacent) {
  const std::vector<AddrRange> dirty{
      {300, 320}, {64, 128}, {128, 192}, {1000, 1008}};
  const auto merged = MergeDirtyRanges(dirty);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].begin, 64u);   // 64..128 and 128..192 are adjacent
  EXPECT_EQ(merged[0].end, 192u);
  EXPECT_EQ(merged[1].begin, 256u);  // 300..320 rounds to 256..320
  EXPECT_EQ(merged[1].end, 320u);
  EXPECT_EQ(merged[2].begin, 960u);  // 1000..1008 rounds to 960..1024
  EXPECT_EQ(merged[2].end, 1024u);
  EXPECT_TRUE(MergeDirtyRanges(std::vector<AddrRange>{}).empty());
}

TEST(MergeDirtyRanges, HeapCommitPersistsEachLineOnce) {
  // Eight stores into one cache line within one operation: the provider must
  // see a single merged range, so its commit-time persist loop touches the
  // line once and NPM005 stays silent. (Pre-merge, the same scenario fired
  // NPM005 on every duplicate range -- the redundancy satellite fix.)
  Fixture f(Opts());
  PoolArena arena(2ull << 20);
  HeapOptions ho;
  ho.mechanism = Mechanism::kLogging;
  auto heap = PersistentHeap::Create(f.rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE((*heap)->BeginOp(0).ok());
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        (*heap)->Store<std::uint64_t>(0, (*heap)->root() + 8 * i, i).ok());
  }
  ASSERT_TRUE((*heap)->CommitOp(0).ok());
  EXPECT_EQ(f.san.sink().count(RuleId::kNpm005), 0u)
      << f.san.sink().RenderText();

  // The lint has teeth: handing the provider the raw duplicate ranges (the
  // pre-fix behavior) fires NPM005 for every redundant persist.
  ASSERT_TRUE((*heap)->provider().BeginOp(0).ok());
  auto prepared = (*heap)->provider().PrepareStore(0, (*heap)->root(), 8);
  ASSERT_TRUE(prepared.ok());
  f.rt.Store<std::uint64_t>(0, *prepared, 99);
  const std::vector<AddrRange> duplicates(4, AddrRange{*prepared,
                                                       *prepared + 8});
  ASSERT_TRUE((*heap)->provider().CommitOp(0, duplicates).ok());
  EXPECT_GE(f.san.sink().count(RuleId::kNpm005), 3u);
}

// ---- Offline trace analysis -------------------------------------------------

TEST(TraceAnalyzer, CleanRunStaysCleanOffline) {
  TraceRecorder recorder;
  RuntimeOptions opts = Opts();
  Runtime rt(opts);
  rt.AttachTrace(&recorder);
  PoolArena arena(0);
  HeapOptions ho;
  ho.mechanism = Mechanism::kLogging;
  auto heap = PersistentHeap::Create(rt, arena, ho);
  ASSERT_TRUE(heap.ok());
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE((*heap)->BeginOp(0).ok());
    ASSERT_TRUE(
        (*heap)->Store<std::uint64_t>(0, (*heap)->root() + 8 * i, i).ok());
    ASSERT_TRUE((*heap)->CommitOp(0).ok());
  }
  rt.DrainDevices(0);

  PmSanitizer san;
  const analyze::TraceAnalysisStats stats =
      analyze::AnalyzeTrace(recorder.Snapshot(), &san);
  EXPECT_GT(stats.events, 0u);
  EXPECT_EQ(san.sink().total_unsuppressed(), 0u) << san.sink().RenderText();
}

TEST(TraceAnalyzer, AblationTraceFiresOffline) {
  TraceRecorder recorder;
  Runtime rt(Opts(/*enforce_ppo=*/false));
  rt.AttachTrace(&recorder);
  auto p = rt.RegisterPool(0, 8ull << 20);
  ASSERT_TRUE(p.ok());
  const auto data = Bytes(256, 5);
  rt.Write(0, 4096, data);
  ASSERT_TRUE(rt.RawCopy(*p, 0, 4096, 64 * 1024, 256, /*wait=*/true).ok());

  PmSanitizer san;
  analyze::AnalyzeTrace(recorder.Snapshot(), &san);
  // The un-persisted operand is visible offline too (NPM002); the offline
  // location is the trace record order, not a source file.
  EXPECT_GE(san.sink().count(RuleId::kNpm002), 1u);
  ASSERT_FALSE(san.sink().diagnostics().empty());
  EXPECT_STREQ(san.sink().diagnostics()[0].loc.file, "<trace>");
}

}  // namespace
}  // namespace nearpm
