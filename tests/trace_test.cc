// src/trace subsystem tests: recorder order/epoch/ring semantics, the
// metrics registry, and the Chrome trace-event exporter. The exporter output
// is schema-checked through the common strict JSON reader over the trace of
// a real simulated run (the same WriteChromeTrace path --trace-out uses), so
// a regression in the emitted JSON fails here rather than in Perfetto.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/runtime.h"
#include "src/trace/chrome_exporter.h"
#include "src/trace/metrics.h"
#include "src/trace/ppo_checker.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace {

TraceEvent Instant(TracePhase phase, std::uint32_t pid, std::uint32_t tid,
                   SimTime ts) {
  TraceEvent e;
  e.phase = phase;
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  return e;
}

// ---- Recorder ---------------------------------------------------------------

// The name table replaced a switch, which the compiler checked for a
// missing phase; this checks it instead.
TEST(TracePhaseNamesTest, NameEveryPhaseOnceAndParseBack) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(TracePhase::kCount); ++i) {
    const auto phase = static_cast<TracePhase>(i);
    const std::string name = TracePhaseName(phase);
    EXPECT_NE(name, "unknown") << "phase " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << name << " names two phases";
    EXPECT_EQ(TracePhaseNames().Parse(name), phase) << name;
  }
  EXPECT_EQ(TracePhaseNames().All().size(), names.size());
  EXPECT_FALSE(TracePhaseNames().Parse("nonsense").has_value());
}

TEST(TraceRecorderTest, AssignsMonotonicOrderAndEpochs) {
  TraceRecorder recorder;
  recorder.Record(Instant(TracePhase::kCpuWrite, kTraceHostPid, 0, 10));
  recorder.Record(Instant(TracePhase::kCpuFence, kTraceHostPid, 1, 5));
  recorder.Record(Instant(TracePhase::kFifoEnqueue, TraceDevicePid(0), 0, 7));
  EXPECT_EQ(recorder.NextEpoch(), 1u);
  recorder.Record(Instant(TracePhase::kCpuWrite, kTraceHostPid, 0, 1));

  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].order, i + 1);  // global record order, 1-based
  }
  EXPECT_EQ(events[0].epoch, 0u);
  EXPECT_EQ(events[2].epoch, 0u);
  EXPECT_EQ(events[3].epoch, 1u);
  EXPECT_EQ(recorder.recorded(), 4u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorderTest, RingOverwritesOldestAcrossTracks) {
  TraceRecorderOptions options;
  options.ring_capacity = 4;
  TraceRecorder recorder(options);
  // Ten events round-robin over three tracks share the one ring.
  for (int i = 0; i < 10; ++i) {
    recorder.Record(Instant(TracePhase::kCpuWrite, kTraceHostPid,
                            static_cast<std::uint32_t>(i % 3), i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);

  // The ring keeps the newest window whatever the track: orders 7..10,
  // each event whole.
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].order, 7 + i);
    EXPECT_EQ(events[i].ts, 6 + i);
    EXPECT_EQ(events[i].tid, (6 + i) % 3);
  }
  // A shorter read is the newest part of the same suffix.
  const std::vector<TraceEvent> newest = recorder.Newest(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].order, 9u);
  EXPECT_EQ(newest[1].order, 10u);
}

TEST(TraceRecorderTest, SnapshotTrimsToConsistentSuffixAcrossTracks) {
  TraceRecorderOptions options;
  options.ring_capacity = 4;
  TraceRecorder recorder(options);
  // A calm track records before (order 1) and after (order 12) a busy track
  // records 10 events (orders 2..11).
  recorder.Record(Instant(TracePhase::kRetire, TraceDevicePid(0), 0, 5));
  for (int i = 0; i < 10; ++i) {
    recorder.Record(Instant(TracePhase::kCpuWrite, kTraceHostPid, 0, 10 + i));
  }
  recorder.Record(Instant(TracePhase::kRetire, TraceDevicePid(0), 0, 50));

  // The snapshot is the newest ring_capacity events of the whole stream,
  // orders 9..12: the calm track's order-1 event is gone with the busy
  // track's older ones, so the stream has no hole in the middle.
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].order, 9 + i);
  }
  EXPECT_EQ(events.back().phase, TracePhase::kRetire);
}

// The ring is allocated at full capacity once, but only the pages events
// land in are touched: a fresh recorder costs what it records, so fuzz
// sweeps and tests can build many of them.
TEST(TraceRecorderTest, ResidentMemoryFollowsTheEventsWritten) {
  // The second field of /proc/self/statm, in pages.
  const auto resident_bytes = [] {
    std::ifstream statm("/proc/self/statm");
    std::int64_t total_pages = 0;
    std::int64_t resident_pages = 0;
    statm >> total_pages >> resident_pages;
    return resident_pages * sysconf(_SC_PAGESIZE);
  };
  const std::int64_t before = resident_bytes();
  ASSERT_GT(before, 0) << "could not read /proc/self/statm";
  TraceRecorder recorder;  // 1 << 18 slots
  for (int i = 0; i < 16; ++i) {
    recorder.Record(Instant(TracePhase::kCpuWrite, kTraceHostPid, 0, i));
  }
  EXPECT_LT(resident_bytes() - before, 1 << 20);
  EXPECT_EQ(recorder.Snapshot().size(), 16u);
}

TEST(TraceRecorderTest, MacrosAreSafeWhenDetachedOrDisabled) {
  TraceRecorder* detached = nullptr;
  NEARPM_TRACE_EVENT(detached, .phase = TracePhase::kCpuFence, .ts = 1);
  EXPECT_FALSE(NEARPM_TRACE_ENABLED(detached));

  TraceRecorder recorder;
  recorder.set_enabled(false);
  EXPECT_FALSE(NEARPM_TRACE_ENABLED(&recorder));
  NEARPM_TRACE_EVENT(&recorder, .phase = TracePhase::kCpuFence, .ts = 1);
  EXPECT_EQ(recorder.recorded(), 0u);

  recorder.set_enabled(true);
  NEARPM_TRACE_SPAN(&recorder, .phase = TracePhase::kUnitExec, .ts = 1,
                    .dur = 9);
  EXPECT_EQ(recorder.recorded(), 1u);
}

TEST(TraceRecorderTest, FeedsMetricsPerPhase) {
  TraceRecorder recorder;
  Histogram expected;
  for (const std::uint64_t dur : {250ull, 1ull, 1ull << 40}) {
    NEARPM_TRACE_SPAN(&recorder, .phase = TracePhase::kUnitExec,
                      .pid = TraceDevicePid(0), .tid = kTraceUnitTidBase,
                      .ts = 100, .dur = dur);
    expected.Add(dur);
  }
  NEARPM_TRACE_EVENT(&recorder, .phase = TracePhase::kCpuFence, .ts = 5);

  const MetricsRegistry& metrics = recorder.metrics();
  ASSERT_NE(metrics.counters().find("unit_exec"), metrics.counters().end());
  EXPECT_EQ(metrics.counters().at("unit_exec"), 3u);
  EXPECT_EQ(metrics.counters().at("cpu_fence"), 1u);
  // Only spans feed the latency histograms, bucket for bucket as Add
  // would have counted them.
  ASSERT_NE(metrics.histograms().find("unit_exec"),
            metrics.histograms().end());
  const Histogram& latency = metrics.histograms().at("unit_exec");
  EXPECT_EQ(latency.count(), 3u);
  EXPECT_EQ(latency.sum(), expected.sum());
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(latency.bucket(i), expected.bucket(i)) << i;
  }
  EXPECT_EQ(metrics.histograms().count("cpu_fence"), 0u);
}

// ---- Metrics registry -------------------------------------------------------

TEST(MetricsRegistryTest, ReportAndJsonRoundTrip) {
  MetricsRegistry metrics;
  metrics.Increment("requests_issued");
  metrics.Increment("requests_issued", 4);
  metrics.AddLatency("unit_exec", 100);
  metrics.AddLatency("unit_exec", 300);

  const std::string report = metrics.Report();
  EXPECT_NE(report.find("requests_issued"), std::string::npos);
  EXPECT_NE(report.find("unit_exec"), std::string::npos);

  const StatusOr<JsonValue> root = ParseJson(metrics.ToJson());
  ASSERT_TRUE(root.ok()) << root.status().ToString() << metrics.ToJson();
  const JsonValue* counters = root->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* issued = counters->Find("requests_issued");
  ASSERT_NE(issued, nullptr);
  EXPECT_EQ(issued->number, 5.0);
  const JsonValue* latencies = root->Find("latencies_ns");
  ASSERT_NE(latencies, nullptr);
  EXPECT_NE(latencies->Find("unit_exec"), nullptr);
}

TEST(MetricsRegistryTest, EscapeLabelValueHandlesSpecialCharacters) {
  // Backslash, double quote and newline are the three characters the
  // Prometheus exposition format requires escaping inside label values.
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("two\nlines"), "two\\nlines");
  // Replica track names carry '/', ':' and spaces -- all legal inside a
  // quoted label value, so they must pass through untouched.
  EXPECT_EQ(EscapeLabelValue("node 3 / link 0->1: net"),
            "node 3 / link 0->1: net");
}

TEST(MetricsRegistryTest, PrometheusLabelsStayWellFormed) {
  MetricsRegistry metrics;
  // A gauge whose label value carries every character class replica track
  // names produce, built the way the profiler does it.
  metrics.SetGauge(
      "duty{resource=\"" + EscapeLabelValue("nic \"rx\" / link 0:1\n") + "\"}",
      0.5);
  const std::string prom = metrics.ToPrometheus("repl");
  EXPECT_NE(prom.find("repl_duty{"), std::string::npos) << prom;
  // The quote and the newline must appear escaped, never raw: a raw quote
  // would terminate the label value early, a raw newline would split the
  // sample line.
  EXPECT_NE(prom.find("\\\"rx\\\""), std::string::npos) << prom;
  EXPECT_NE(prom.find("\\n"), std::string::npos) << prom;
  for (std::size_t at = prom.find('{'); at != std::string::npos;
       at = prom.find('{', at + 1)) {
    const std::size_t close = prom.find('}', at);
    ASSERT_NE(close, std::string::npos);
    EXPECT_EQ(prom.substr(at, close - at).find('\n'), std::string::npos)
        << "raw newline inside a label set:\n" << prom;
  }
}

TEST(MetricsRegistryTest, ConcurrentRecordingFromWorkerThreads) {
  MetricsRegistry metrics;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&metrics, t] {
      // Mix of a shared counter (contended), per-thread counters (map
      // insertion under load) and shared histograms, like serve workers do.
      auto& cached = metrics.Counter("requests_total");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        cached.fetch_add(1, std::memory_order_relaxed);
        metrics.Increment("batches_total");
        metrics.Increment("worker_" + std::to_string(t) + "_ops");
        metrics.AddLatency("request_ns", (i % 7 + 1) * 100);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }

  EXPECT_EQ(metrics.counters().at("requests_total"), kThreads * kPerThread);
  EXPECT_EQ(metrics.counters().at("batches_total"), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(metrics.counters().at("worker_" + std::to_string(t) + "_ops"),
              kPerThread);
  }
  EXPECT_EQ(metrics.histograms().at("request_ns").count(),
            kThreads * kPerThread);
  EXPECT_GT(metrics.histograms().at("request_ns").Percentile(0.99), 0u);
}

// ---- Chrome trace exporter --------------------------------------------------

// Records the trace of a real run touching every layer: CPU access, an NDP
// undo-log create, a commit (cross-device sync + deferred delete) and a
// crash with hardware recovery.
void RecordExemplarRun(TraceRecorder* recorder) {
  RuntimeOptions options;
  options.mode = ExecMode::kNdpMultiDelayed;
  options.pm_size = 16ull << 20;
  Runtime rt(options);
  rt.AttachTrace(recorder);
  auto pool = rt.RegisterPool(0, 1 << 20);
  ASSERT_TRUE(pool.ok());

  const std::uint8_t line[64] = {};
  rt.Write(0, 4096, line);
  rt.Persist(0, 4096, sizeof(line));
  rt.Fence(0);
  (void)rt.Load<std::uint64_t>(0, 4096);

  const PmAddr slot = 512 * 1024;
  ASSERT_TRUE(rt.UndologCreate(*pool, 0, /*tx_id=*/1, /*old_data=*/0,
                               /*size=*/4096, slot)
                  .ok());
  const PmAddr slots[] = {slot};
  ASSERT_TRUE(rt.CommitLog(*pool, 0, slots).ok());
  ASSERT_TRUE(rt.UndologCreate(*pool, 0, /*tx_id=*/2, /*old_data=*/8192,
                               /*size=*/4096, slot + 8192)
                  .ok());
  Rng rng(7);
  rt.InjectCrash(rng);
}

TEST(ChromeExporterTest, EmitsSchemaValidTraceForARealRun) {
  TraceRecorder recorder;
  RecordExemplarRun(&recorder);
  ASSERT_GT(recorder.recorded(), 0u);

  std::ostringstream os;
  WriteChromeTrace(recorder, os);

  const StatusOr<JsonValue> root = ParseJson(os.str());
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_EQ(root->kind, JsonValue::Kind::kObject);
  const JsonValue* unit = root->Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ns");

  const JsonValue* events = root->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->kind == JsonValue::Kind::kArray);
  ASSERT_FALSE(events->items.empty());

  std::set<std::string> names;
  std::size_t spans = 0;
  std::size_t instants = 0;
  std::size_t metadata = 0;
  std::size_t counters = 0;
  for (const JsonValue& e : events->items) {
    ASSERT_TRUE(e.kind == JsonValue::Kind::kObject);
    const JsonValue* name = e.Find("name");
    const JsonValue* ph = e.Find("ph");
    const JsonValue* pid = e.Find("pid");
    const JsonValue* tid = e.Find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(name->kind == JsonValue::Kind::kString);
    ASSERT_TRUE(pid->is_number());
    ASSERT_TRUE(tid->is_number());
    ASSERT_TRUE(ph->str == "X" || ph->str == "i" || ph->str == "M" ||
                ph->str == "C")
        << "unexpected phase " << ph->str;
    if (ph->str == "C") {
      // Counter-track samples: occupancy series Perfetto renders as graphs.
      ++counters;
      names.insert(name->str);
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* value = args->Find("value");
      ASSERT_NE(value, nullptr);
      ASSERT_TRUE(value->is_number());
      EXPECT_GE(value->number, 0.0);
      continue;
    }
    if (ph->str == "M") {
      ++metadata;
      EXPECT_TRUE(name->str == "process_name" || name->str == "thread_name");
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* label = args->Find("name");
      ASSERT_NE(label, nullptr);
      EXPECT_FALSE(label->str.empty());
      continue;
    }
    names.insert(name->str);
    const JsonValue* ts = e.Find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    EXPECT_GE(ts->number, 0.0);
    if (ph->str == "X") {
      ++spans;
      const JsonValue* dur = e.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GT(dur->number, 0.0);
    } else {
      ++instants;
      const JsonValue* scope = e.Find("s");
      ASSERT_NE(scope, nullptr);
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(instants, 0u);
  EXPECT_GT(metadata, 0u);
  EXPECT_GT(counters, 0u);
  // The run above must have produced the core lifecycle vocabulary,
  // including the occupancy counter tracks.
  for (const char* expected : {"cmd_post", "dev_pipeline", "unit_exec",
                               "cpu_persist", "cpu_read", "crash",
                               "fifo_depth", "inflight_depth"}) {
    EXPECT_NE(names.find(expected), names.end()) << "missing " << expected;
  }
}

TEST(ChromeExporterTest, LaysEpochsOutSequentially) {
  // Epoch 1's clocks restart from zero; on the exported timeline its events
  // must still land after everything in epoch 0.
  std::vector<TraceEvent> events;
  TraceEvent first = Instant(TracePhase::kCpuWrite, kTraceHostPid, 0, 1000);
  first.epoch = 0;
  first.order = 1;
  TraceEvent second = Instant(TracePhase::kCpuFence, kTraceHostPid, 0, 0);
  second.epoch = 1;
  second.order = 2;
  events.push_back(first);
  events.push_back(second);

  std::ostringstream os;
  WriteChromeTrace(events, os);
  const StatusOr<JsonValue> root = ParseJson(os.str());
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* trace_events = root->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);

  double write_ts = -1;
  double fence_ts = -1;
  for (const JsonValue& e : trace_events->items) {
    const JsonValue* name = e.Find("name");
    const JsonValue* ts = e.Find("ts");
    if (name == nullptr || ts == nullptr) {
      continue;
    }
    if (name->str == "cpu_write") {
      write_ts = ts->number;
    } else if (name->str == "cpu_fence") {
      fence_ts = ts->number;
    }
  }
  ASSERT_GE(write_ts, 0.0);
  ASSERT_GE(fence_ts, 0.0);
  EXPECT_GT(fence_ts, write_ts);
}

TEST(ChromeExporterTest, WritesFileAndReportsIoFailure) {
  TraceRecorder recorder;
  recorder.Record(Instant(TracePhase::kCpuWrite, kTraceHostPid, 0, 1));

  const std::string path = ::testing::TempDir() + "/nearpm_trace_test.json";
  ASSERT_TRUE(WriteChromeTraceFile(recorder, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const StatusOr<JsonValue> root = ParseJson(buffer.str());
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_NE(root->Find("traceEvents"), nullptr);

  EXPECT_FALSE(WriteChromeTraceFile(
      recorder, "/nonexistent-nearpm-dir/trace.json"));
}

TEST(ChromeExporterTest, TrackNamesCoverEveryResource) {
  EXPECT_FALSE(TraceProcessName(kTraceHostPid).empty());
  EXPECT_FALSE(TraceProcessName(kTracePciePid).empty());
  EXPECT_FALSE(TraceProcessName(kTraceSyncPid).empty());
  EXPECT_FALSE(TraceProcessName(TraceDevicePid(1)).empty());
  EXPECT_FALSE(TraceThreadName(kTraceHostPid, 3).empty());
  EXPECT_FALSE(
      TraceThreadName(TraceDevicePid(0), kTraceDispatcherTid).empty());
  EXPECT_FALSE(
      TraceThreadName(TraceDevicePid(0), kTraceUnitTidBase + 2).empty());
  EXPECT_FALSE(
      TraceThreadName(TraceDevicePid(0), kTraceMaintenanceTid).empty());
}

}  // namespace
}  // namespace nearpm
