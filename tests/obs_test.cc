// Tests for src/obs: the flight recorder as a per-source view of the
// recorder rings (newest events per source, a lossless dump, lock-free
// reads next to a writer), sliding-window merge and decay, SLO spec
// parsing, the watchdog's teeth in both directions (a breach must dump, a
// clean run must not, a lost dump is counted), and the end-to-end breach ->
// dump -> timeline replay path through the serving layers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
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

// A recorder holding `count` events from Event(pid, ts = 0, 1, ...).
std::unique_ptr<TraceRecorder> Filled(
    std::uint32_t pid, std::uint64_t count,
    std::size_t ring_capacity = TraceRecorderOptions{}.ring_capacity) {
  TraceRecorderOptions options;
  options.ring_capacity = ring_capacity;
  auto recorder = std::make_unique<TraceRecorder>(options);
  for (std::uint64_t ts = 0; ts < count; ++ts) {
    recorder->Record(Event(pid, ts));
  }
  return recorder;
}

// WriteFlightDump's output for `flight`, read back through ReadFlightDump.
FlightDump Reparse(const FlightRecorder& flight, const SloAlert* alert) {
  std::ostringstream os;
  WriteFlightDump(os, flight, alert);
  std::istringstream is(os.str());
  StatusOr<FlightDump> dump = ReadFlightDump(is);
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  return dump.ok() ? std::move(*dump) : FlightDump{};
}

TEST(FlightRecorderTest, RingWrapKeepsNewestRecords) {
  const auto recorder = Filled(1, 20, /*ring_capacity=*/8);
  FlightRecorder flight;
  flight.AddSource("only", recorder.get());
  EXPECT_EQ(flight.accepted(), 20u);

  const std::vector<TimelineSource> sources = flight.Snapshot();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].label, "only");
  ASSERT_EQ(sources[0].events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sources[0].events[i].order, 13 + i) << "newest 8 of 20";
    EXPECT_EQ(sources[0].events[i].ts, 12 + i);
  }
}

// Source `s` of `dump` holds exactly the orders first..last, in order.
void ExpectOrders(const FlightDump& dump, std::size_t s, std::uint64_t first,
                  std::uint64_t last) {
  const std::vector<TraceEvent>& events = dump.sources[s].events;
  ASSERT_EQ(events.size(), last - first + 1) << dump.sources[s].label;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].order, first + i) << dump.sources[s].label;
    EXPECT_EQ(events[i].pid, s + 1);
  }
}

// Each source contributes its own newest events: the per-source budget
// caps a busy recorder, a small ring caps itself, and a quiet source keeps
// everything -- the busy one never crowds the others out.
TEST(FlightRecorderTest, DumpHoldsEachSourcesNewestEvents) {
  const std::uint64_t busy_count = FlightRecorder::kEventsPerSource + 904;
  const auto busy = Filled(1, busy_count);
  const auto small = Filled(2, 20, /*ring_capacity=*/8);
  const auto quiet = Filled(3, 3);
  FlightRecorder flight;
  flight.AddSource("busy", busy.get());
  flight.AddSource("small", small.get());
  flight.AddSource("quiet", quiet.get());
  EXPECT_EQ(flight.accepted(), busy_count + 20 + 3);

  const FlightDump dump = Reparse(flight, nullptr);
  ASSERT_EQ(dump.sources.size(), 3u);
  ExpectOrders(dump, 0, 905, busy_count);  // the newest 4096
  ExpectOrders(dump, 1, 13, 20);
  ExpectOrders(dump, 2, 1, 3);
}

TEST(FlightRecorderTest, DumpCarriesSchemaSourcesAndRecords) {
  TraceRecorder shard;
  TraceRecorder fabric;
  shard.Record(Event(1, 5, /*trace=*/7));
  fabric.Record(Event(5, 6, /*trace=*/7));
  FlightRecorder flight;
  flight.AddSource("shard0", &shard);
  flight.AddSource("fabric", &fabric);

  std::ostringstream os;
  WriteFlightDump(os, flight, nullptr);
  const std::string dump = os.str();

  EXPECT_NE(dump.find("\"schema\":\"nearpm-flight-v2\""), std::string::npos);
  EXPECT_NE(dump.find("\"sources\":[\"shard0\",\"fabric\"]"),
            std::string::npos);
  EXPECT_EQ(dump.find("\"alert\""), std::string::npos);
  // Header plus one line per record, grouped by source.
  std::istringstream is(dump);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].rfind("{\"source\":0,\"phase\":", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("{\"source\":1,\"phase\":", 0), 0u) << lines[2];
  EXPECT_NE(lines[2].find("\"trace\":7}"), std::string::npos);
}

// The dump is lossless: every field of every event, ranges and arg1
// included, reads back as the recorder holds it.
TEST(FlightRecorderTest, DumpRoundTripsThroughTheReader) {
  TraceRecorder node;
  TraceRecorder fabric;
  TraceEvent post = Event(TraceDevicePid(1), 4, /*trace=*/7);
  post.phase = TracePhase::kCmdPost;
  post.seq = 3;
  post.range = {64, 128};
  post.range2 = {4096, 4160};
  post.arg0 = 5;
  post.arg1 = 9;
  TraceEvent xfer = Event(kTraceNetPid, 5, /*trace=*/7);
  xfer.phase = TracePhase::kNetXfer;
  xfer.tid = 3;
  xfer.seq = 11;
  xfer.arg0 = 2;
  xfer.arg1 = 1ull << 40;
  node.Record(post);
  node.NextEpoch();
  node.Record(Event(1, 1ull << 40, /*trace=*/UINT64_MAX));
  fabric.Record(xfer);
  FlightRecorder flight;
  flight.AddSource("node0", &node);
  flight.AddSource("fabric", &fabric);

  SloAlert alert;
  alert.id = 3;
  alert.rule = SloRule::kP99Latency;
  const FlightDump dump = Reparse(flight, &alert);
  EXPECT_EQ(dump.alert_json, SloAlertJson(alert));
  const std::vector<TimelineSource> written = flight.Snapshot();
  ASSERT_EQ(dump.sources.size(), written.size());
  for (std::size_t s = 0; s < written.size(); ++s) {
    EXPECT_EQ(dump.sources[s].label, written[s].label);
    ASSERT_EQ(dump.sources[s].events.size(), written[s].events.size());
    for (std::size_t i = 0; i < written[s].events.size(); ++i) {
      const TraceEvent& got = dump.sources[s].events[i];
      const TraceEvent& want = written[s].events[i];
      EXPECT_EQ(got.phase, want.phase);
      EXPECT_EQ(got.pid, want.pid);
      EXPECT_EQ(got.tid, want.tid);
      EXPECT_EQ(got.ts, want.ts);
      EXPECT_EQ(got.dur, want.dur);
      EXPECT_EQ(got.seq, want.seq);
      EXPECT_EQ(got.range, want.range);
      EXPECT_EQ(got.range2, want.range2);
      EXPECT_EQ(got.arg0, want.arg0);
      EXPECT_EQ(got.arg1, want.arg1);
      EXPECT_EQ(got.epoch, want.epoch);
      EXPECT_EQ(got.order, want.order);
      EXPECT_EQ(got.trace, want.trace);
    }
  }
  EXPECT_EQ(dump.sources[0].events[0].range2, (AddrRange{4096, 4160}));
  EXPECT_EQ(dump.sources[0].events[1].epoch, 1u);
  EXPECT_EQ(dump.sources[1].events[0].arg1, 1ull << 40);
}

TEST(FlightRecorderTest, ReaderRejectsMalformedDumps) {
  const std::string header =
      "{\"schema\":\"nearpm-flight-v2\",\"capacity\":4096,\"accepted\":1,"
      "\"sources\":[\"node0\"]}\n";
  const std::string record =
      "{\"source\":0,\"phase\":\"serve_request\",\"pid\":4,\"tid\":0,"
      "\"ts\":5,\"dur\":10,\"seq\":0,\"range\":[0,0],\"range2\":[0,0],"
      "\"arg0\":0,\"arg1\":0,\"epoch\":0,\"order\":1,\"trace\":7}";
  {
    std::istringstream is(header + record + "\n");
    ASSERT_TRUE(ReadFlightDump(is).ok()) << "the base case must load";
  }
  const auto replace = [](std::string text, const std::string& from,
                          const std::string& to) {
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  // Trailing bytes, a negative ts, a pid past 32 bits, an unlisted source,
  // a record without a source (a bare raw-trace line), a missing key, an
  // unknown key, an unknown phase, a short range, trailing bytes after the
  // header, a v1 header (its records dropped ranges and arg1), another
  // schema, and no header at all.
  const std::vector<std::string> bad_dumps = {
      header + record + "x\n",
      header + replace(record, "\"ts\":5", "\"ts\":-5") + "\n",
      header + replace(record, "\"pid\":4", "\"pid\":4294967299") + "\n",
      header + replace(record, "\"source\":0", "\"source\":1") + "\n",
      header + replace(record, "\"source\":0,", "") + "\n",
      header + replace(record, ",\"order\":1", "") + "\n",
      header + replace(record, "\"trace\":7", "\"trace\":7,\"x\":1") + "\n",
      header + replace(record, "serve_request", "nonsense") + "\n",
      header + replace(record, "\"range\":[0,0]", "\"range\":[0]") + "\n",
      header.substr(0, header.size() - 1) + " x\n" + record,
      replace(header, "v2", "v1") + record + "\n",
      "{\"schema\":\"other\"}\n",
      "",
  };
  for (const std::string& text : bad_dumps) {
    std::istringstream is(text);
    EXPECT_FALSE(ReadFlightDump(is).ok()) << "accepted:\n" << text;
  }
  // A dump of the old schema is named as such.
  std::istringstream v1(replace(header, "v2", "v1") + record + "\n");
  const Status st = ReadFlightDump(v1).status();
  EXPECT_NE(st.message().find("\"nearpm-flight-v1\", want"),
            std::string::npos)
      << st.message();
}

// Every field of an event, for whole-event comparison.
auto Fields(const TraceEvent& e) {
  return std::tie(e.phase, e.pid, e.tid, e.ts, e.dur, e.seq, e.range, e.range2,
                  e.arg0, e.arg1, e.epoch, e.order, e.trace);
}

// One writer records into a small ring while another thread keeps reading
// the whole ring without any lock, so the writer laps slots mid-read. Every
// read must be a run of consecutive orders, and every event whole: each
// field is a function of its order, so a torn copy shows as a mismatch.
TEST(FlightRecorderTest, ConcurrentReadsSeeWholeEventsInOrder) {
  constexpr std::uint64_t kEvents = 1 << 20;
  constexpr std::size_t kRead = 256;
  const auto make = [](std::uint64_t order) {
    TraceEvent e;
    e.order = order;
    e.phase = static_cast<TracePhase>(order % 7);
    e.pid = static_cast<std::uint32_t>(order * 3);
    e.tid = static_cast<std::uint32_t>(order >> 3);
    e.ts = order * 5;
    e.dur = order + 1;
    e.seq = order ^ 0x5555;
    e.range = {order, order + 64};
    e.range2 = {order * 2, order * 2 + 8};
    e.arg0 = ~order;
    e.arg1 = order * 7;
    e.trace = order + 11;
    return e;
  };

  TraceRecorderOptions options;
  options.ring_capacity = kRead;
  TraceRecorder recorder(options);
  FlightRecorder flight;
  flight.AddSource("writer", &recorder);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t order = 1; order <= kEvents; ++order) {
      recorder.Record(make(order));
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t reads = 0;
  std::uint64_t nonempty = 0;
  std::uint64_t bad = 0;
  while (!done.load(std::memory_order_acquire) || reads == 0) {
    const std::vector<TimelineSource> sources = flight.Snapshot(kRead);
    const std::vector<TraceEvent>& events = sources[0].events;
    ++reads;
    nonempty += events.empty() ? 0 : 1;
    bad += events.size() > kRead ? 1 : 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent want = make(events[i].order);
      const bool whole = Fields(events[i]) == Fields(want);
      const bool next = i == 0 || events[i].order == events[i - 1].order + 1;
      bad += whole && next ? 0 : 1;
    }
  }
  writer.join();
  EXPECT_EQ(bad, 0u) << "over " << reads << " reads";
  EXPECT_GT(nonempty, 0u);
  const std::vector<TraceEvent> last = recorder.Newest(kRead);
  ASSERT_EQ(last.size(), kRead);
  EXPECT_EQ(last.back().order, kEvents);
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

  TraceRecorder shard;
  shard.Record(Event(1, 50, /*trace=*/3));
  FlightRecorder flight;
  flight.AddSource("shard0", &shard);

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
  EXPECT_NE(header.find("\"schema\":\"nearpm-flight-v2\""),
            std::string::npos);
  EXPECT_NE(header.find("\"alert\":{"), std::string::npos);
  EXPECT_NE(header.find("\"rule\":\"p99_latency\""), std::string::npos);

  // Cooldown: the next due check inside one window stays quiet even though
  // the breach persists.
  EXPECT_FALSE(watchdog.MaybeCheck(200'000, {&window}, 0, 64, nullptr));
  EXPECT_EQ(watchdog.alert_count(), 1u);
  EXPECT_EQ(watchdog.dump_failures(), 0u);
  std::remove(dump_path.c_str());
}

// A breach whose dump cannot be written still fires its alert, and the
// lost dump is counted rather than skipped.
TEST(SloWatchdogTest, UnwritableDumpIsCounted) {
  TraceRecorder shard;
  shard.Record(Event(1, 50, /*trace=*/3));
  FlightRecorder flight;
  flight.AddSource("shard0", &shard);
  WindowOptions wo;
  wo.window_ns = 1'000'000;
  SlidingWindow window(wo);
  for (int i = 0; i < 64; ++i) {
    window.RecordLatency(1000 + i, 50'000, /*error=*/false);
  }

  WatchdogOptions opts;
  opts.spec.p99_ns = 100;
  opts.spec.min_requests = 8;
  opts.spec.window_ns = 1e6;
  opts.flight = &flight;
  opts.dump_path = ::testing::TempDir() + "/nearpm_obs_missing_dir/d.jsonl";
  SloWatchdog watchdog(opts);

  EXPECT_TRUE(watchdog.MaybeCheck(2000, {&window}, 0, 64, nullptr));
  EXPECT_EQ(watchdog.alert_count(), 1u);
  EXPECT_EQ(watchdog.dump_failures(), 1u);
}

TEST(SloWatchdogTest, CleanRunNeverCreatesTheDump) {
  const std::string dump_path =
      ::testing::TempDir() + "/nearpm_obs_clean.jsonl";
  std::remove(dump_path.c_str());

  FlightRecorder flight;
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
  EXPECT_NE(header.find("\"schema\":\"nearpm-flight-v2\""),
            std::string::npos);
  const char* sources_json = R"("sources":["shard0","shard1"])";
  if (tier == Tier::kReplicated) {
    sources_json = R"("sources":["node0","node1","node2","node3","fabric"])";
  }
  EXPECT_NE(header.find(sources_json), std::string::npos) << header;
  in.seekg(0);
  const StatusOr<FlightDump> dump = ReadFlightDump(in);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();

  // The breach's slow ids resolve against the quiesced node traces, and
  // the dump alone rebuilds the last alert's slowest request exactly as
  // the whole rings do: same hops, same device slices, every one tiling.
  const std::vector<TimelineSource> sources = svc->TimelineSources();
  const std::vector<std::uint64_t> ids = ListTraceIds(sources);
  EXPECT_EQ(ids.size(), issued.size());
  const std::uint64_t slowest = alerts.back().window.slowest[0].trace;
  const RequestTimeline timeline = BuildRequestTimeline(sources, slowest);
  const RequestTimeline from_dump =
      BuildRequestTimeline(dump->sources, slowest);
  ASSERT_FALSE(timeline.empty());
  EXPECT_FALSE(timeline.slices.empty()) << "a put issues device commands";
  EXPECT_TRUE(timeline.AttributionHolds());
  EXPECT_TRUE(from_dump.AttributionHolds());
  EXPECT_EQ(from_dump.hops.size(), timeline.hops.size());
  EXPECT_EQ(from_dump.slices.size(), timeline.slices.size());
  std::ostringstream want;
  std::ostringstream got;
  RenderRequestTimeline(timeline, want);
  RenderRequestTimeline(from_dump, got);
  EXPECT_EQ(got.str(), want.str());
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
  WriteFlightDump(os, *svc->flight(), nullptr);
  EXPECT_NE(os.str().find("\"schema\":\"nearpm-flight-v2\""),
            std::string::npos);
}

TEST(KvServiceObsTest, TightSloUnderPumpDumpsABreachNamingSlowRequests) {
  CheckTightSloDumpsABreach(Tier::kSingleCopy, /*window_ns=*/8000);
}

TEST(KvServiceObsTest, WindowSnapshotSeesTheRunAndCleanSloStaysQuiet) {
  CheckCleanSloStaysQuiet(Tier::kSingleCopy);
}

// A breach dump the service cannot write is published as a counter (the
// load driver fails the run on it).
TEST(KvServiceObsTest, UnwritableBreachDumpIsPublished) {
  SloSpec slo;
  slo.p99_ns = 1;
  slo.window_ns = 8000;
  slo.min_requests = 8;
  const auto svc = MakeObsService(
      Tier::kSingleCopy, slo,
      ::testing::TempDir() + "/nearpm_obs_missing_dir/breach.jsonl");
  ASSERT_NE(svc, nullptr);
  for (std::uint64_t key = 0; key < 64; ++key) {
    serve::ServeRequest req;
    req.kind = serve::RequestKind::kPut;
    req.key = key;
    req.value.assign(16, static_cast<std::uint8_t>(key));
    ASSERT_TRUE(svc->Submit(std::move(req)).ok());
  }
  svc->Pump();

  const std::uint64_t alerts = svc->watchdog()->alert_count();
  EXPECT_GE(alerts, 1u);
  EXPECT_EQ(svc->watchdog()->dump_failures(), alerts);
  svc->PublishMetrics();
  EXPECT_EQ(svc->metrics().counters().at("serve_slo_dump_failures"), alerts);
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
  EXPECT_GT((*svc)->flight()->accepted(), 0u);
  const std::vector<std::string>& labels =
      (*svc)->flight()->source_labels();
  ASSERT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels.back(), "fabric");
}

}  // namespace
}  // namespace obs
}  // namespace nearpm
