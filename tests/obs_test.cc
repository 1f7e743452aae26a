// Tests for src/obs: the flight recorder's wrap/trim behavior against the
// per-track recorder rings, sliding-window merge and decay, SLO spec
// parsing, the watchdog's teeth in both directions (a breach must dump, a
// clean run must not), and the end-to-end breach -> dump -> timeline replay
// path through the serving layers.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/slo.h"
#include "src/obs/watchdog.h"
#include "src/obs/window.h"
#include "src/prof/request_timeline.h"
#include "src/repl/service.h"
#include "src/serve/service.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace obs {
namespace {

TraceEvent Event(std::uint32_t pid, SimTime ts, std::uint64_t trace = 0) {
  TraceEvent event;
  event.phase = TracePhase::kServeRequest;
  event.pid = pid;
  event.tid = 0;
  event.ts = ts;
  event.dur = 10;
  event.trace = trace;
  return event;
}

// ---- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, RingWrapKeepsNewestRecords) {
  FlightRecorder flight(8);
  TraceSink* sink = flight.RegisterSource("only");
  for (std::uint64_t i = 0; i < 20; ++i) {
    sink->Consume(Event(1, i));
  }
  EXPECT_EQ(flight.accepted(), 20u);
  EXPECT_EQ(flight.dropped(), 12u);

  const std::vector<FlightRecord> records = flight.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].ticket, 12 + i) << "oldest surviving ticket is 12";
    EXPECT_EQ(records[i].ts, 12 + i);
    EXPECT_EQ(records[i].source, 0u);
  }
}

// The per-track rings trim Snapshot() to the newest globally consistent
// suffix once any track wraps; the flight ring is budgeted globally, so it
// retains exactly the newest N events regardless of which track they are
// on. With a flight budget >= the event count, the black box must hold
// events the trimmed recorder snapshot already gave up.
TEST(FlightRecorderTest, RetainsEventsTheTrimmedSnapshotDropped) {
  TraceRecorderOptions opts;
  opts.ring_capacity = 4;
  opts.feed_metrics = false;
  TraceRecorder recorder(opts);
  FlightRecorder flight(1024);
  recorder.AttachSink(flight.RegisterSource("rec"));

  // Track pid=1 wraps (12 events into 4 slots); track pid=2 does not.
  recorder.Record(Event(2, 0));
  for (SimTime ts = 1; ts <= 12; ++ts) {
    recorder.Record(Event(1, ts));
  }
  recorder.Record(Event(2, 13));

  const std::vector<TraceEvent> trimmed = recorder.Snapshot();
  EXPECT_LT(trimmed.size(), recorder.recorded());
  ASSERT_FALSE(trimmed.empty());
  std::uint64_t trim_floor = trimmed.front().order;
  for (const TraceEvent& event : trimmed) {
    trim_floor = std::min(trim_floor, event.order);
  }

  const std::vector<FlightRecord> black_box = flight.Snapshot();
  EXPECT_EQ(black_box.size(), 14u) << "flight budget covers everything";
  std::uint64_t flight_floor = black_box.front().order;
  for (const FlightRecord& record : black_box) {
    flight_floor = std::min(flight_floor, record.order);
  }
  EXPECT_LT(flight_floor, trim_floor)
      << "the flight ring must still hold pre-trim history";
}

TEST(FlightRecorderTest, DumpCarriesSchemaSourcesAndRecords) {
  FlightRecorder flight(16);
  TraceSink* a = flight.RegisterSource("shard0");
  TraceSink* b = flight.RegisterSource("fabric");
  a->Consume(Event(1, 5, /*trace=*/7));
  b->Consume(Event(5, 6, /*trace=*/7));

  std::ostringstream os;
  WriteFlightDump(os, flight, nullptr);
  const std::string dump = os.str();

  EXPECT_NE(dump.find("\"schema\":\"nearpm-flight-v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"sources\":[\"shard0\",\"fabric\"]"),
            std::string::npos);
  EXPECT_EQ(dump.find("\"alert\""), std::string::npos);
  // Header plus one line per record.
  std::istringstream is(dump);
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(dump.find("\"trace\":7"), std::string::npos);
}

TEST(FlightRecorderTest, DumpRoundTripsThroughTheReader) {
  FlightRecorder flight(16);
  TraceSink* a = flight.RegisterSource("node0");
  TraceSink* b = flight.RegisterSource("fabric");
  TraceEvent span = Event(kTraceServePid, 5, /*trace=*/7);
  span.phase = TracePhase::kNetXfer;
  span.tid = 3;
  span.seq = 11;
  span.arg0 = 2;
  span.epoch = 1;
  a->Consume(Event(1, 4, /*trace=*/7));
  b->Consume(span);
  a->Consume(Event(1, 1ull << 40, /*trace=*/UINT64_MAX));

  SloAlert alert;
  alert.id = 3;
  alert.rule = SloRule::kP99Latency;
  std::ostringstream os;
  WriteFlightDump(os, flight, &alert);
  std::istringstream is(os.str());
  const StatusOr<FlightDump> dump = ReadFlightDump(is);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();

  EXPECT_EQ(dump->sources, flight.source_labels());
  EXPECT_EQ(dump->alert_json, SloAlertJson(alert));
  const std::vector<FlightRecord> written = flight.Snapshot();
  ASSERT_EQ(dump->records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    const FlightRecord& got = dump->records[i];
    const FlightRecord& want = written[i];
    EXPECT_EQ(got.ticket, want.ticket);
    EXPECT_EQ(got.source, want.source);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.pid, want.pid);
    EXPECT_EQ(got.tid, want.tid);
    EXPECT_EQ(got.ts, want.ts);
    EXPECT_EQ(got.dur, want.dur);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.arg0, want.arg0);
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.trace, want.trace);
  }
}

TEST(FlightRecorderTest, ReaderRejectsMalformedDumps) {
  const std::string header =
      "{\"schema\":\"nearpm-flight-v1\",\"capacity\":16,\"accepted\":1,"
      "\"dropped\":0,\"sources\":[\"node0\"]}\n";
  const std::string record =
      "{\"ticket\":0,\"source\":0,\"phase\":\"serve_request\",\"pid\":4,"
      "\"tid\":0,\"ts\":5,\"dur\":10,\"seq\":0,\"arg0\":0,\"epoch\":0,"
      "\"order\":0,\"trace\":7}";
  {
    std::istringstream is(header + record + "\n");
    ASSERT_TRUE(ReadFlightDump(is).ok()) << "the base case must load";
  }
  const auto replace = [&record](const std::string& from,
                                 const std::string& to) {
    std::string bad = record;
    bad.replace(bad.find(from), from.size(), to);
    return bad;
  };
  // Trailing bytes, a negative ts, a pid past 32 bits, an unlisted source, a
  // missing key, an unknown key, an unknown phase, trailing bytes after the
  // header, another schema, and no header at all.
  const std::vector<std::string> bad_dumps = {
      header + record + "x\n",
      header + replace("\"ts\":5", "\"ts\":-5") + "\n",
      header + replace("\"pid\":4", "\"pid\":4294967299") + "\n",
      header + replace("\"source\":0", "\"source\":1") + "\n",
      header + replace(",\"trace\":7", "") + "\n",
      header + replace("\"trace\":7", "\"trace\":7,\"x\":1") + "\n",
      header + replace("serve_request", "nonsense") + "\n",
      header.substr(0, header.size() - 1) + " x\n" + record,
      "{\"schema\":\"other\"}\n",
      "",
  };
  for (const std::string& text : bad_dumps) {
    std::istringstream is(text);
    EXPECT_FALSE(ReadFlightDump(is).ok()) << "accepted:\n" << text;
  }
}

// ---- Sliding window -------------------------------------------------------

TEST(SlidingWindowTest, CountsDecayAsSimTimeAdvances) {
  WindowOptions wo;
  wo.window_ns = 1000;
  wo.buckets = 4;
  SlidingWindow window(wo);

  window.RecordLatency(100, 40, /*error=*/false, /*trace=*/1);
  window.RecordLatency(200, 60, /*error=*/true, /*trace=*/2);
  window.RecordDepth(200, 6);

  WindowStats now = window.Snapshot(250);
  EXPECT_EQ(now.count, 2u);
  EXPECT_EQ(now.errors, 1u);
  EXPECT_DOUBLE_EQ(now.ErrorRate(), 0.5);
  EXPECT_EQ(now.depth_max, 6u);
  EXPECT_DOUBLE_EQ(now.MeanDepth(), 6.0);

  // One full window later both samples fell out of scope.
  const WindowStats later = window.Snapshot(1500);
  EXPECT_EQ(later.count, 0u);
  EXPECT_EQ(later.errors, 0u);
  EXPECT_EQ(later.depth_max, 0u);

  // And the wheel recycles: a fresh sample is counted alone.
  window.RecordLatency(1600, 80, /*error=*/false, /*trace=*/3);
  const WindowStats fresh = window.Snapshot(1600);
  EXPECT_EQ(fresh.count, 1u);
  EXPECT_EQ(fresh.errors, 0u);
}

TEST(SlidingWindowTest, MergeAggregatesAndKeepsSlowestAcrossWindows) {
  WindowOptions wo;
  wo.window_ns = 1000;
  wo.buckets = 4;
  wo.slow_k = 2;
  SlidingWindow a(wo);
  SlidingWindow b(wo);

  a.RecordLatency(100, 500, /*error=*/false, /*trace=*/11);
  a.RecordLatency(200, 100, /*error=*/false, /*trace=*/12);
  b.RecordLatency(150, 900, /*error=*/true, /*trace=*/21);
  b.RecordLatency(250, 300, /*error=*/false, /*trace=*/22);

  const WindowStats merged = SlidingWindow::Merge({&a, &b}, 300);
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.errors, 1u);
  EXPECT_EQ(merged.latency.count(), 4u);

  // The merged slow list is the k slowest overall, descending.
  ASSERT_EQ(merged.slowest.size(), 2u);
  EXPECT_EQ(merged.slowest[0].trace, 21u);
  EXPECT_EQ(merged.slowest[0].latency_ns, 900u);
  EXPECT_EQ(merged.slowest[1].trace, 11u);
  EXPECT_EQ(merged.slowest[1].latency_ns, 500u);
}

// ---- SLO spec -------------------------------------------------------------

TEST(SloSpecTest, WriteParseRoundTripsExactly) {
  SloSpec spec;
  spec.name = "tight";
  spec.p99_ns = 1500.5;
  spec.max_error_rate = 0.02;
  spec.max_stall_fraction = 0.1;
  spec.window_ns = 2e6;
  spec.min_requests = 16;
  spec.slow_k = 3;

  const std::string text = WriteSloSpec(spec);
  auto parsed = ParseSloSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(WriteSloSpec(*parsed), text);
  EXPECT_EQ(parsed->name, "tight");
  EXPECT_DOUBLE_EQ(parsed->p99_ns, 1500.5);
  EXPECT_EQ(parsed->min_requests, 16u);
  EXPECT_EQ(parsed->slow_k, 3);
}

TEST(SloSpecTest, RejectsUnknownKeysAndBadValues) {
  EXPECT_FALSE(ParseSloSpec("{\"p99\": 5}").ok()) << "unknown key";
  EXPECT_FALSE(ParseSloSpec("{\"schema_version\": 2}").ok());
  EXPECT_FALSE(ParseSloSpec("{\"max_error_rate\": 1.5}").ok());
  EXPECT_FALSE(ParseSloSpec("{\"window_ns\": 0}").ok());
  EXPECT_FALSE(ParseSloSpec("{\"slow_k\": -1}").ok());
  EXPECT_TRUE(ParseSloSpec("{}").ok()) << "all-defaults spec is valid";
}

// ---- Watchdog -------------------------------------------------------------

TEST(SloWatchdogTest, BreachFiresDumpsAndCoolsDown) {
  const std::string dump_path =
      ::testing::TempDir() + "/nearpm_obs_breach.jsonl";
  std::remove(dump_path.c_str());

  FlightRecorder flight(64);
  flight.RegisterSource("shard0")->Consume(Event(1, 50, /*trace=*/3));

  WindowOptions wo;
  wo.window_ns = 1'000'000;
  SlidingWindow window(wo);
  for (int i = 0; i < 64; ++i) {
    window.RecordLatency(1000 + i, 50'000, /*error=*/false,
                         /*trace=*/static_cast<std::uint64_t>(i + 1));
  }

  WatchdogOptions opts;
  opts.spec.p99_ns = 100;
  opts.spec.min_requests = 8;
  opts.spec.window_ns = 1e6;
  opts.flight = &flight;
  opts.dump_path = dump_path;
  SloWatchdog watchdog(opts);

  EXPECT_TRUE(watchdog.MaybeCheck(2000, {&window}, 0, 64, nullptr));
  EXPECT_EQ(watchdog.alert_count(), 1u);

  const std::vector<SloAlert> alerts = watchdog.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, SloRule::kP99Latency);
  EXPECT_GT(alerts[0].observed, alerts[0].bound);
  ASSERT_FALSE(alerts[0].window.slowest.empty())
      << "an alert must name slow request ids";
  EXPECT_NE(alerts[0].window.slowest[0].trace, 0u);

  // The dump landed, schema-tagged, with the alert embedded.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "breach must write " << dump_path;
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"schema\":\"nearpm-flight-v1\""),
            std::string::npos);
  EXPECT_NE(header.find("\"alert\":{"), std::string::npos);
  EXPECT_NE(header.find("\"rule\":\"p99_latency\""), std::string::npos);

  // Cooldown: the next due check inside one window stays quiet even though
  // the breach persists.
  EXPECT_FALSE(watchdog.MaybeCheck(200'000, {&window}, 0, 64, nullptr));
  EXPECT_EQ(watchdog.alert_count(), 1u);
  std::remove(dump_path.c_str());
}

TEST(SloWatchdogTest, CleanRunNeverCreatesTheDump) {
  const std::string dump_path =
      ::testing::TempDir() + "/nearpm_obs_clean.jsonl";
  std::remove(dump_path.c_str());

  FlightRecorder flight(64);
  WindowOptions wo;
  wo.window_ns = 1'000'000;
  SlidingWindow window(wo);
  for (int i = 0; i < 64; ++i) {
    window.RecordLatency(1000 + i, 10, /*error=*/false);
  }

  WatchdogOptions opts;
  opts.spec.p99_ns = 1e9;          // generous
  opts.spec.max_error_rate = 0.5;  // no errors recorded anyway
  opts.spec.min_requests = 8;
  opts.spec.window_ns = 1e6;
  opts.flight = &flight;
  opts.dump_path = dump_path;
  SloWatchdog watchdog(opts);

  EXPECT_FALSE(watchdog.MaybeCheck(2000, {&window}, 0, 64, nullptr));
  EXPECT_FALSE(watchdog.ForceCheck(3000, {&window}, 0, 64, nullptr));
  EXPECT_EQ(watchdog.alert_count(), 0u);
  EXPECT_GE(watchdog.checks(), 2u);

  std::ifstream in(dump_path);
  EXPECT_FALSE(in.good()) << "a clean run must not write a dump";
}

TEST(SloWatchdogTest, StallFractionRuleFiresOnRejectedDelta) {
  WindowOptions wo;
  wo.window_ns = 1'000'000;
  SlidingWindow window(wo);

  WatchdogOptions opts;
  opts.spec.max_stall_fraction = 0.25;
  opts.spec.min_requests = 8;
  opts.spec.window_ns = 1e6;
  SloWatchdog watchdog(opts);

  // 10 of 20 attempted admissions stalled since the last check.
  EXPECT_TRUE(watchdog.ForceCheck(1000, {&window}, 10, 20, nullptr));
  const std::vector<SloAlert> alerts = watchdog.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, SloRule::kStallFraction);
  EXPECT_DOUBLE_EQ(alerts[0].observed, 0.5);
}

// ---- Serving-layer integration --------------------------------------------
// The tight- and clean-SLO cases run over both tiers: the single-copy
// service (sources shard<N>) and the replicated one (2 groups x 2 replicas,
// sources node<N> plus fabric). The watchdog lives in the shared front end,
// so only the service and the window width differ. A window is sized to
// its tier's simulated run so checks come due; a replicated put commits
// over the fabric and takes several times longer.

enum class Tier { kSingleCopy, kReplicated };

const char* TierName(Tier tier) {
  return tier == Tier::kReplicated ? "repl" : "serve";
}

std::unique_ptr<serve::FrontEnd> MakeObsService(Tier tier, const SloSpec& slo,
                                                const std::string& dump_path) {
  serve::FrontEndOptions fo;
  fo.workers_per_shard = 1;
  fo.queue_capacity = 256;
  fo.batch_max = 4;
  fo.table_slots = 128;
  fo.value_size = 16;
  fo.slo = slo;
  fo.slo_dump_path = dump_path;
  if (tier == Tier::kReplicated) {
    repl::ReplOptions ro;
    static_cast<serve::FrontEndOptions&>(ro) = fo;
    ro.groups = 2;
    ro.replicas = 2;
    auto svc = repl::ReplicatedKvService::Create(ro);
    EXPECT_TRUE(svc.ok()) << svc.status().ToString();
    return svc.ok() ? std::move(*svc) : nullptr;
  }
  serve::ServeOptions so;
  static_cast<serve::FrontEndOptions&>(so) = fo;
  so.shards = 2;
  auto svc = serve::KvService::Create(so);
  EXPECT_TRUE(svc.ok()) << svc.status().ToString();
  return svc.ok() ? std::move(*svc) : nullptr;
}

void CheckTightSloDumpsABreach(Tier tier, double window_ns) {
  const std::string dump_path =
      ::testing::TempDir() + "/nearpm_obs_" + TierName(tier) + "_breach.jsonl";
  std::remove(dump_path.c_str());

  SloSpec slo;
  slo.p99_ns = 1;  // every real request breaches
  slo.window_ns = window_ns;
  slo.min_requests = 8;
  const auto svc = MakeObsService(tier, slo, dump_path);
  ASSERT_NE(svc, nullptr);

  std::vector<std::future<serve::ServeResult>> futures;
  for (std::uint64_t key = 0; key < 64; ++key) {
    serve::ServeRequest req;
    req.kind = serve::RequestKind::kPut;
    req.key = key;
    req.value.assign(16, static_cast<std::uint8_t>(key));
    auto fut = svc->Submit(std::move(req));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
  }
  svc->Pump();

  std::set<std::uint64_t> issued;
  for (auto& fut : futures) {
    const serve::ServeResult res = fut.get();
    EXPECT_TRUE(res.status.ok());
    EXPECT_NE(res.trace_id, 0u) << "every admitted request gets a trace id";
    issued.insert(res.trace_id);
  }
  EXPECT_EQ(issued.size(), futures.size()) << "trace ids are unique";

  ASSERT_NE(svc->watchdog(), nullptr);
  EXPECT_GE(svc->watchdog()->alert_count(), 1u);
  const std::vector<SloAlert> alerts = svc->watchdog()->alerts();
  ASSERT_FALSE(alerts.empty());
  ASSERT_FALSE(alerts[0].window.slowest.empty());
  for (const SlowRequest& slow : alerts[0].window.slowest) {
    EXPECT_TRUE(issued.count(slow.trace))
        << "alert names unknown trace id " << slow.trace;
  }

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"schema\":\"nearpm-flight-v1\""),
            std::string::npos);
  const char* sources_json = R"("sources":["shard0","shard1"])";
  if (tier == Tier::kReplicated) {
    sources_json = R"("sources":["node0","node1","node2","node3","fabric"])";
  }
  EXPECT_NE(header.find(sources_json), std::string::npos) << header;

  // The breach's slow ids resolve against the quiesced node traces.
  std::vector<TimelineSource> sources = svc->TimelineSources();
  const std::vector<std::uint64_t> ids = ListTraceIds(sources);
  EXPECT_EQ(ids.size(), issued.size());
  const RequestTimeline timeline =
      BuildRequestTimeline(sources, alerts[0].window.slowest[0].trace);
  ASSERT_FALSE(timeline.empty());
  EXPECT_TRUE(timeline.AttributionHolds());
  std::remove(dump_path.c_str());
}

void CheckCleanSloStaysQuiet(Tier tier) {
  const std::string dump_path =
      ::testing::TempDir() + "/nearpm_obs_" + TierName(tier) + "_clean.jsonl";
  std::remove(dump_path.c_str());

  SloSpec slo;
  slo.p99_ns = 1e12;
  slo.min_requests = 8;
  const auto svc = MakeObsService(tier, slo, dump_path);
  ASSERT_NE(svc, nullptr);

  for (std::uint64_t key = 0; key < 32; ++key) {
    serve::ServeRequest req;
    req.kind = serve::RequestKind::kPut;
    req.key = key;
    req.value.assign(16, static_cast<std::uint8_t>(key));
    ASSERT_TRUE(svc->Submit(std::move(req)).ok());
  }
  svc->Pump();

  const obs::WindowStats stats = svc->WindowSnapshot(svc->Stats().makespan_ns);
  EXPECT_EQ(stats.count, 32u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_FALSE(stats.slowest.empty());

  ASSERT_NE(svc->watchdog(), nullptr);
  EXPECT_GE(svc->watchdog()->checks(), 1u);
  EXPECT_EQ(svc->watchdog()->alert_count(), 0u);
  std::ifstream in(dump_path);
  EXPECT_FALSE(in.good()) << "a clean run must not write a dump";

  // The always-on black box is dumpable without any breach.
  std::ostringstream os;
  ASSERT_TRUE(svc->DumpFlightRecord(os));
  EXPECT_NE(os.str().find("\"schema\":\"nearpm-flight-v1\""),
            std::string::npos);
}

TEST(KvServiceObsTest, TightSloUnderPumpDumpsABreachNamingSlowRequests) {
  CheckTightSloDumpsABreach(Tier::kSingleCopy, /*window_ns=*/8000);
}

TEST(KvServiceObsTest, WindowSnapshotSeesTheRunAndCleanSloStaysQuiet) {
  CheckCleanSloStaysQuiet(Tier::kSingleCopy);
}

TEST(ReplObsTest, TightSloUnderPumpDumpsABreachNamingSlowRequests) {
  CheckTightSloDumpsABreach(Tier::kReplicated, /*window_ns=*/80000);
}

TEST(ReplObsTest, WindowSnapshotSeesTheRunAndCleanSloStaysQuiet) {
  CheckCleanSloStaysQuiet(Tier::kReplicated);
}

// ---- Cross-replica timeline -----------------------------------------------

TEST(ReplObsTest, CrossReplicaTimelineSpansNodesAndFabric) {
  repl::ReplOptions ro;
  ro.groups = 2;
  ro.replicas = 2;
  ro.workers_per_shard = 1;
  ro.queue_capacity = 64;
  ro.batch_max = 4;
  ro.table_slots = 128;
  ro.value_size = 16;
  auto svc = repl::ReplicatedKvService::Create(ro);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  serve::ServeRequest req;
  req.kind = serve::RequestKind::kMultiPut;
  for (std::uint64_t key = 0; key < 8; ++key) {
    req.pairs.push_back(
        {key, std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(key))});
  }
  auto fut = (*svc)->Submit(std::move(req));
  ASSERT_TRUE(fut.ok());
  EXPECT_EQ((*svc)->Pump(), 1u);
  const serve::ServeResult res = fut->get();
  ASSERT_TRUE(res.status.ok());
  ASSERT_NE(res.trace_id, 0u);

  std::vector<TimelineSource> sources = (*svc)->TimelineSources();
  ASSERT_EQ(sources.size(), 5u) << "4 nodes + fabric";
  EXPECT_EQ(sources.back().label, "fabric");

  const RequestTimeline timeline =
      BuildRequestTimeline(sources, res.trace_id);
  ASSERT_FALSE(timeline.empty());
  EXPECT_TRUE(timeline.AttributionHolds())
      << "device slices must tile even across replicas";

  std::set<int> touched;
  bool fabric_hop = false;
  bool replica_hop = false;
  for (const TimelineHop& hop : timeline.hops) {
    touched.insert(hop.source);
    const std::string& label = sources[hop.source].label;
    if (label == "fabric") {
      fabric_hop = true;
      EXPECT_EQ(hop.event.trace, res.trace_id)
          << "fabric frames carry the originating id";
    }
    if (label != "fabric" && label != "node0") {
      replica_hop = true;
    }
  }
  EXPECT_GE(touched.size(), 3u)
      << "a replicated txn crosses coordinator, fabric and peers";
  EXPECT_TRUE(fabric_hop) << "kNetXfer hops must appear in the timeline";
  EXPECT_TRUE(replica_hop) << "replica-side replay must carry the id";

  // The flight recorder covered the same run cluster-wide.
  ASSERT_NE((*svc)->flight(), nullptr);
  EXPECT_GT((*svc)->flight()->accepted(), 0u);
  const std::vector<std::string>& labels =
      (*svc)->flight()->source_labels();
  ASSERT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels.back(), "fabric");
}

}  // namespace
}  // namespace obs
}  // namespace nearpm
