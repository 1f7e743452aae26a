// Tests for src/prof: critical-path attribution (and its exact-sum
// invariant), per-resource duty cycles, sampled occupancy, the raw trace
// round trip, the deterministic renderers, and the Prometheus exposition
// (including the serve layer's per-shard duty gauges).
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/runtime.h"
#include "src/prof/profile.h"
#include "src/prof/report.h"
#include "src/prof/request_timeline.h"
#include "src/serve/service.h"
#include "src/trace/raw_trace.h"
#include "src/trace/recorder.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace {

// Runs `ops` operations of one workload with a recorder attached and
// returns the trace. Mirrors the bench harness loop.
std::vector<TraceEvent> TraceWorkload(const std::string& name, ExecMode mode,
                                      TraceRecorder* recorder,
                                      std::uint64_t ops = 120) {
  RuntimeOptions opts;
  opts.mode = mode;
  opts.pm_size = 64ull << 20;
  opts.retain_crash_state = false;
  Runtime rt(opts);
  rt.AttachTrace(recorder);
  PoolArena arena(0);

  auto workload = CreateWorkload(name);
  EXPECT_NE(workload, nullptr) << name;
  WorkloadConfig wc;
  wc.mechanism = Mechanism::kLogging;
  wc.initial_keys = 100;
  wc.seed = 7;
  EXPECT_TRUE(workload->Setup(rt, arena, wc).ok()) << name;
  rt.DrainDevices(0);

  Rng rng(11);
  for (std::uint64_t i = 0; i < ops; ++i) {
    EXPECT_TRUE(workload->RunOp(0, rng).ok()) << name << " op " << i;
  }
  rt.DrainDevices(0);
  return recorder->Snapshot();
}

// ---- Attribution ------------------------------------------------------------

TEST(ProfileTest, AttributionInvariantHoldsOnEveryWorkload) {
  for (const std::string& name : EvaluatedWorkloads()) {
    for (ExecMode mode : {ExecMode::kNdpSingleDevice,
                          ExecMode::kNdpMultiSwSync,
                          ExecMode::kNdpMultiDelayed}) {
      TraceRecorder recorder;
      const auto events = TraceWorkload(name, mode, &recorder, /*ops=*/60);
      const Profile profile = BuildProfile(events);
      EXPECT_GT(profile.slices.size(), 0u) << name;
      EXPECT_TRUE(profile.attribution_violations.empty())
          << name << " mode " << ExecModeName(mode);
      EXPECT_EQ(profile.incomplete_slices, 0u) << name;
      for (const RequestSlice& slice : profile.slices) {
        ASSERT_EQ(slice.PhaseSum(), slice.span_ns())
            << name << " seq " << slice.seq;
      }
    }
  }
}

TEST(ProfileTest, PhaseTotalsTileTheTotalSpan) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const Profile profile = BuildProfile(events);
  SimTime sum = 0;
  for (int i = 0; i < kNumAttrPhases; ++i) {
    sum += profile.phase_total_ns[i];
  }
  EXPECT_EQ(sum, profile.total_span_ns);
  EXPECT_GT(profile.total_span_ns, 0u);
  // The model always charges a command post and unit execution.
  EXPECT_GT(profile.phase_total_ns[static_cast<int>(AttrPhase::kCmdPost)],
            0u);
  EXPECT_GT(profile.phase_total_ns[static_cast<int>(AttrPhase::kUnitExec)],
            0u);
}

TEST(ProfileTest, SlowestSlicesAreSortedBySpan) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const Profile profile = BuildProfile(events);
  ASSERT_LE(profile.slowest.size(), kProfileSlowestSlices);
  ASSERT_GT(profile.slowest.size(), 0u);
  for (std::size_t i = 1; i < profile.slowest.size(); ++i) {
    EXPECT_GE(profile.slices[profile.slowest[i - 1]].span_ns(),
              profile.slices[profile.slowest[i]].span_ns());
  }
  // Nothing unranked outranks the ranked tail.
  const SimTime min_ranked = profile.slices[profile.slowest.back()].span_ns();
  std::uint64_t faster_than_tail = 0;
  for (const RequestSlice& slice : profile.slices) {
    faster_than_tail += slice.span_ns() > min_ranked;
  }
  EXPECT_LT(faster_than_tail, profile.slowest.size());
}

TEST(ProfileTest, DetectsIncompleteSlices) {
  TraceRecorder recorder;
  auto events = TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  // Drop every kCmdPost: all request lifecycles lose their head.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const TraceEvent& e) {
                                return e.phase == TracePhase::kCmdPost;
                              }),
               events.end());
  const Profile profile = BuildProfile(events);
  EXPECT_EQ(profile.slices.size(), 0u);
  EXPECT_GT(profile.incomplete_slices, 0u);
  EXPECT_TRUE(profile.attribution_violations.empty());
}

// ---- Per-request attribution ------------------------------------------------

// A device command whose windows do not tile -- here a command post that
// lost its nominal release (arg1), as a lossy copy of the trace would --
// fails its request's attribution check instead of silently vanishing from
// the request's slices. A lifecycle cut off at the start of a stream stays
// incomplete.
TEST(RequestTimelineTest, BrokenSliceFailsTheRequestsAttribution) {
  TraceRecorder recorder;
  std::vector<TraceEvent> events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder, /*ops=*/30);
  for (TraceEvent& e : events) {
    e.trace = 5;  // one request owns the whole stream
  }
  const auto is_post = [](const TraceEvent& e) {
    return e.phase == TracePhase::kCmdPost && e.ts > 0;
  };
  const auto post = std::find_if(events.begin(), events.end(), is_post);
  ASSERT_NE(post, events.end());
  const std::uint64_t seq = post->seq;

  const RequestTimeline intact = BuildRequestTimeline({{"node0", events}}, 5);
  EXPECT_TRUE(intact.AttributionHolds());
  EXPECT_FALSE(intact.slices.empty());

  post->arg1 = 0;
  const RequestTimeline broken = BuildRequestTimeline({{"node0", events}}, 5);
  EXPECT_FALSE(broken.AttributionHolds());
  ASSERT_EQ(broken.attribution_violations.size(), 1u);
  EXPECT_EQ(broken.attribution_violations[0].seq, seq);
  EXPECT_EQ(broken.attribution_violations[0].trace, 5u);
  EXPECT_EQ(broken.slices.size(), intact.slices.size() - 1);
  std::ostringstream os;
  RenderRequestTimeline(broken, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("invariant: VIOLATED by 1 device slices"),
            std::string::npos)
      << text;

  const std::vector<TraceEvent> cut(post + 1, events.end());
  EXPECT_TRUE(BuildRequestTimeline({{"node0", cut}}, 5).AttributionHolds());
  EXPECT_GT(BuildProfile(cut).incomplete_slices, 0u);
}

// ---- Utilization and occupancy ----------------------------------------------

TEST(ProfileTest, DutyCyclesStayWithinTheObservationWindow) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const Profile profile = BuildProfile(events);
  ASSERT_FALSE(profile.resources.empty());
  bool saw_unit = false;
  for (const ResourceUsage& usage : profile.resources) {
    EXPECT_GT(usage.window_ns, 0u) << usage.name;
    EXPECT_LE(usage.busy_ns, usage.window_ns) << usage.name;
    EXPECT_GE(usage.duty(), 0.0) << usage.name;
    EXPECT_LE(usage.duty(), 1.0) << usage.name;
    EXPECT_GT(usage.spans, 0u) << usage.name;
    if (usage.pid >= kTraceDevicePidBase &&
        usage.tid >= kTraceUnitTidBase && usage.tid != kTraceMaintenanceTid) {
      saw_unit = true;
    }
  }
  EXPECT_TRUE(saw_unit);
}

TEST(ProfileTest, OccupancySeriesCoverFifoAndInflightTable) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const Profile profile = BuildProfile(events);
  std::set<TracePhase> series;
  for (const OccupancySeries& occ : profile.occupancy) {
    series.insert(occ.phase);
    EXPECT_GT(occ.samples, 0u) << occ.name;
    EXPECT_GE(static_cast<double>(occ.max), occ.mean) << occ.name;
    EXPECT_GT(occ.mean, 0.0) << occ.name;
    if (occ.phase == TracePhase::kFifoDepth) {
      // The Request FIFO holds at most its capacity (32 entries).
      EXPECT_LE(occ.max, 32u) << occ.name;
    }
  }
  EXPECT_TRUE(series.count(TracePhase::kFifoDepth));
  EXPECT_TRUE(series.count(TracePhase::kInflightDepth));
}

// ---- Raw trace round trip ---------------------------------------------------

TEST(RawTraceTest, RoundTripsLosslessly) {
  TraceRecorder recorder;
  auto events = TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder,
                              /*ops=*/30);
  // A workload trace is not request-scoped; give it trace ids to carry.
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].trace = i % 3 == 0 ? 0 : UINT64_MAX - i;
  }
  std::ostringstream os;
  WriteRawTrace(events, os);

  std::istringstream is(os.str());
  std::vector<TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(ReadRawTrace(is, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].phase, events[i].phase);
    EXPECT_EQ(parsed[i].pid, events[i].pid);
    EXPECT_EQ(parsed[i].tid, events[i].tid);
    EXPECT_EQ(parsed[i].ts, events[i].ts);
    EXPECT_EQ(parsed[i].dur, events[i].dur);
    EXPECT_EQ(parsed[i].seq, events[i].seq);
    EXPECT_EQ(parsed[i].range, events[i].range);
    EXPECT_EQ(parsed[i].range2, events[i].range2);
    EXPECT_EQ(parsed[i].arg0, events[i].arg0);
    EXPECT_EQ(parsed[i].arg1, events[i].arg1);
    EXPECT_EQ(parsed[i].epoch, events[i].epoch);
    EXPECT_EQ(parsed[i].order, events[i].order);
    EXPECT_EQ(parsed[i].trace, events[i].trace);
  }
}

TEST(RawTraceTest, RejectsMalformedInput) {
  std::istringstream is("{\"phase\":\"nonsense\",\"pid\":1}\n");
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_FALSE(ReadRawTrace(is, &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);

  const std::string line =
      "{\"phase\":\"cpu_persist\",\"pid\":1,\"tid\":0,\"ts\":5,\"dur\":2,"
      "\"seq\":0,\"range\":[64,128],\"range2\":[0,0],\"arg0\":0,\"arg1\":0,"
      "\"epoch\":0,\"order\":3,\"trace\":9}";
  const auto replace = [&line](const std::string& from,
                               const std::string& to) {
    std::string bad = line;
    bad.replace(bad.find(from), from.size(), to);
    return bad;
  };
  {
    // Lines from before request-scoped tracing carry no trace key.
    std::istringstream legacy(line + "\n" + replace(",\"trace\":9", "") + "\n");
    std::vector<TraceEvent> events;
    ASSERT_TRUE(ReadRawTrace(legacy, &events, &error)) << error;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].trace, 9u);
    EXPECT_EQ(events[1].trace, 0u);
    EXPECT_EQ(events[1].range, (AddrRange{64, 128}));
  }
  // Trailing bytes, a negative ts, a pid and an epoch past 32 bits, a short
  // range, a missing key and an unknown key.
  const std::vector<std::string> bad_lines = {
      line + "x",
      replace("\"ts\":5", "\"ts\":-5"),
      replace("\"pid\":1", "\"pid\":4294967299"),
      replace("\"epoch\":0", "\"epoch\":4294967296"),
      replace("[64,128]", "[64]"),
      replace(",\"order\":3", ""),
      replace("\"trace\":9", "\"trace\":9,\"x\":0"),
  };
  for (const std::string& bad : bad_lines) {
    std::istringstream in(line + "\n" + bad + "\n");
    std::vector<TraceEvent> events;
    EXPECT_FALSE(ReadRawTrace(in, &events, &error)) << "accepted " << bad;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
}

// ---- Renderers --------------------------------------------------------------

TEST(ReportTest, OutputsAreDeterministic) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const Profile a = BuildProfile(events);
  const Profile b = BuildProfile(events);
  EXPECT_EQ(RenderReport(a), RenderReport(b));
  EXPECT_EQ(RenderFolded(a), RenderFolded(b));
  EXPECT_EQ(RenderProfileJson(a, "{}"), RenderProfileJson(b, "{}"));
}

TEST(ReportTest, ReportNamesEveryAttributionPhase) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const std::string report = RenderReport(BuildProfile(events));
  for (int i = 0; i < kNumAttrPhases; ++i) {
    EXPECT_NE(report.find(AttrPhaseName(static_cast<AttrPhase>(i))),
              std::string::npos)
        << AttrPhaseName(static_cast<AttrPhase>(i));
  }
  EXPECT_NE(report.find("attribution violations: 0"), std::string::npos);
}

TEST(ReportTest, FoldedStacksParse) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const std::string folded = RenderFolded(BuildProfile(events));
  ASSERT_FALSE(folded.empty());
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    // flamegraph format: "frame;frame;... <count>".
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NE(line.find(';'), std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c))) << line;
    }
  }
  EXPECT_NE(folded.find("request;device 0;unit_exec"), std::string::npos);
}

TEST(ReportTest, ProfileJsonCarriesSchemaAndInvariantFields) {
  TraceRecorder recorder;
  const auto events =
      TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const std::string json =
      RenderProfileJson(BuildProfile(events), "{\"test\": 1}");
  EXPECT_NE(json.find("\"schema\": \"nearpm-profile-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"attribution_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"config\": {\"test\": 1}"), std::string::npos);
  EXPECT_NE(json.find("\"phase_share\""), std::string::npos);
  EXPECT_NE(json.find("\"resources\""), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
}

// ---- Prometheus exposition --------------------------------------------------

// Minimal Prometheus text-format checker: every non-comment line must be
// `name[{labels}] value`, every series must be preceded by a # TYPE header
// for its base name, and a base name must have exactly one type.
void ValidatePrometheus(const std::string& text,
                        std::map<std::string, std::string>* types,
                        std::map<std::string, double>* values) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream header(line.substr(7));
      std::string base, type;
      header >> base >> type;
      ASSERT_FALSE(base.empty());
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      ASSERT_EQ(types->count(base), 0u) << "duplicate type for " << base;
      (*types)[base] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << line;
    // The base (up to '{') must have a declared type. _bucket/_sum/_count
    // series of a histogram attach to the histogram's base.
    std::string base = series.substr(0, series.find('{'));
    if (types->count(base) == 0) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s = suffix;
        if (base.size() > s.size() &&
            base.compare(base.size() - s.size(), s.size(), s) == 0) {
          const std::string trimmed = base.substr(0, base.size() - s.size());
          if (types->count(trimmed) != 0) {
            base = trimmed;
            break;
          }
        }
      }
    }
    ASSERT_EQ(types->count(base), 1u) << "no TYPE header for " << line;
    (*values)[series] = v;
  }
}

TEST(PrometheusTest, ExposesCountersGaugesAndQuantiles) {
  TraceRecorder recorder;
  (void)TraceWorkload("btree", ExecMode::kNdpMultiDelayed, &recorder);
  const std::string text = recorder.metrics().ToPrometheus();

  std::map<std::string, std::string> types;
  std::map<std::string, double> values;
  ValidatePrometheus(text, &types, &values);

  EXPECT_EQ(types["nearpm_cmd_post"], "counter");
  EXPECT_EQ(types["nearpm_fifo_depth"], "gauge");
  EXPECT_EQ(types["nearpm_inflight_depth"], "gauge");
  EXPECT_EQ(types["nearpm_cmd_post_latency_ns"], "histogram");
  EXPECT_GT(values["nearpm_cmd_post"], 0.0);
  EXPECT_GT(values["nearpm_cmd_post_latency_ns_bucket{le=\"+Inf\"}"], 0.0);
  EXPECT_GT(values["nearpm_cmd_post_latency_ns_count"], 0.0);
  EXPECT_GT(values["nearpm_cmd_post_latency_ns_sum"], 0.0);
  // The +Inf bucket must equal _count, and the cumulative buckets must be
  // monotone -- the histogram contract PromQL's histogram_quantile needs.
  EXPECT_DOUBLE_EQ(values["nearpm_cmd_post_latency_ns_bucket{le=\"+Inf\"}"],
                   values["nearpm_cmd_post_latency_ns_count"]);
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  for (const auto& [series, value] : values) {
    const std::string want = "nearpm_cmd_post_latency_ns_bucket{le=\"";
    if (series.rfind(want, 0) == 0 &&
        series.find("+Inf") == std::string::npos) {
      buckets.emplace_back(std::strtod(series.c_str() + want.size(), nullptr),
                           value);
    }
  }
  std::sort(buckets.begin(), buckets.end());
  double prev = 0.0;
  for (const auto& [le, value] : buckets) {
    EXPECT_GE(value, prev) << "le=" << le;
    prev = value;
  }
}

// Byte-exact golden for the histogram exposition: a deterministic registry
// must serialize to exactly this text (cumulative buckets, elided empty
// tail, +Inf closing, sum/count, caller labels joined with le).
TEST(PrometheusTest, HistogramExpositionGolden) {
  MetricsRegistry registry;
  registry.Increment("ops", 3);
  Histogram& plain = registry.Latency("req");
  plain.Add(0);    // bucket 0: le="0"
  plain.Add(1);    // bucket 1: le="1"
  plain.Add(5);    // bucket 3: le="7"
  plain.Add(5);
  Histogram& labeled = registry.Latency("req{shard=\"2\"}");
  labeled.Add(2);  // bucket 2: le="3"

  const std::string expected =
      "# TYPE x_ops counter\n"
      "x_ops 3\n"
      "# TYPE x_req_latency_ns histogram\n"
      "x_req_latency_ns_bucket{le=\"0\"} 1\n"
      "x_req_latency_ns_bucket{le=\"1\"} 2\n"
      "x_req_latency_ns_bucket{le=\"3\"} 2\n"
      "x_req_latency_ns_bucket{le=\"7\"} 4\n"
      "x_req_latency_ns_bucket{le=\"+Inf\"} 4\n"
      "x_req_latency_ns_sum 11\n"
      "x_req_latency_ns_count 4\n"
      "x_req_latency_ns_bucket{shard=\"2\",le=\"0\"} 0\n"
      "x_req_latency_ns_bucket{shard=\"2\",le=\"1\"} 0\n"
      "x_req_latency_ns_bucket{shard=\"2\",le=\"3\"} 1\n"
      "x_req_latency_ns_bucket{shard=\"2\",le=\"+Inf\"} 1\n"
      "x_req_latency_ns_sum{shard=\"2\"} 2\n"
      "x_req_latency_ns_count{shard=\"2\"} 1\n";
  EXPECT_EQ(registry.ToPrometheus("x"), expected);
}

TEST(PrometheusTest, GaugePrimitiveRoundTrips) {
  MetricsRegistry registry;
  registry.SetGauge("depth", 3.0);
  EXPECT_DOUBLE_EQ(registry.GaugeRef("depth").value(), 3.0);
  registry.SetGauge("depth", 1.5);
  EXPECT_DOUBLE_EQ(registry.GaugeRef("depth").value(), 1.5);
  registry.SetGauge("ratio{kind=\"a\"}", 0.25);
  const std::string text = registry.ToPrometheus("x");
  EXPECT_NE(text.find("# TYPE x_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("x_depth 1.5"), std::string::npos);
  EXPECT_NE(text.find("x_ratio{kind=\"a\"} 0.25"), std::string::npos);
}

// ---- Serve integration ------------------------------------------------------

TEST(ServeProfilingTest, ExportsPerShardPerUnitDutyGauges) {
  serve::ServeOptions so;
  so.shards = 2;
  so.workers_per_shard = 2;
  so.queue_capacity = 64;
  auto svc = serve::KvService::Create(so);
  ASSERT_TRUE(svc.ok());

  for (std::uint64_t i = 0; i < 120; ++i) {
    serve::ServeRequest req;
    req.kind = serve::RequestKind::kPut;
    req.key = i;
    req.value = std::vector<std::uint8_t>(8, 3);
    if (!(*svc)->Submit(std::move(req)).ok()) {
      (*svc)->Pump();
      --i;
    }
  }
  (*svc)->Pump();
  (*svc)->ExportResourceMetrics();

  const std::string text = (*svc)->metrics().ToPrometheus();
  std::map<std::string, std::string> types;
  std::map<std::string, double> values;
  ValidatePrometheus(text, &types, &values);
  EXPECT_EQ(types["nearpm_serve_duty"], "gauge");

  // Every shard exposes a duty cycle for every NearPM unit, bounded by 1.
  for (int shard = 0; shard < so.shards; ++shard) {
    bool saw_unit = false;
    for (const auto& [series, value] : values) {
      const std::string want = "nearpm_serve_duty{shard=\"" +
                               std::to_string(shard) + "\",resource=\"";
      if (series.rfind(want, 0) == 0) {
        EXPECT_GE(value, 0.0) << series;
        EXPECT_LE(value, 1.0) << series;
        if (series.find("/ unit ") != std::string::npos) {
          saw_unit = true;
        }
      }
    }
    EXPECT_TRUE(saw_unit) << "shard " << shard;
  }
  // Queue occupancy rides along as serve_occupancy_* gauges.
  bool saw_queue_series = false;
  for (const auto& [series, value] : values) {
    (void)value;
    if (series.rfind("nearpm_serve_occupancy_mean{", 0) == 0 &&
        series.find("serve_queue_depth") != std::string::npos) {
      saw_queue_series = true;
    }
  }
  EXPECT_TRUE(saw_queue_series);
}

}  // namespace
}  // namespace nearpm
