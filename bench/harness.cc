#include "bench/harness.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/serve/front_end.h"
#include "src/trace/chrome_exporter.h"

namespace nearpm {
namespace bench {

const char* ShortModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kCpuBaseline:
      return "Baseline";
    case ExecMode::kNdpSingleDevice:
      return "NearPM SD";
    case ExecMode::kNdpMultiSwSync:
      return "NearPM MD SW-sync";
    case ExecMode::kNdpMultiDelayed:
      return "NearPM MD";
  }
  return "?";
}

RunResult RunWorkload(const RunConfig& config) {
  RuntimeOptions opts;
  opts.mode = config.mode;
  opts.hw = BenchHwConfig();
  if (config.units_per_device > 0) {
    opts.hw.units_per_device = config.units_per_device;
  }
  opts.max_threads = config.threads;
  opts.pm_size = 512ull << 20;
  opts.retain_crash_state = false;  // pure-performance run
  Runtime rt(opts);
  AttachBenchTrace(rt);
  PoolArena arena(0);

  auto workload = CreateWorkload(config.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    std::abort();
  }
  WorkloadConfig wc;
  wc.mechanism = config.mechanism;
  wc.threads = config.threads;
  wc.data_size = config.data_size;
  wc.initial_keys = config.initial_keys;
  wc.seed = config.seed;
  Status st = workload->Setup(rt, arena, wc);
  if (!st.ok()) {
    std::fprintf(stderr, "setup(%s) failed: %s\n", config.workload.c_str(),
                 st.ToString().c_str());
    std::abort();
  }
  rt.DrainDevices(0);

  // Measure from here: snapshot-and-subtract keeps clocks monotonic.
  const RuntimeStats before = rt.stats();
  Rng rng(config.seed * 31 + 1);
  for (std::uint64_t i = 0; i < config.ops; ++i) {
    const ThreadId t = static_cast<ThreadId>(i % config.threads);
    st = workload->RunOp(t, rng);
    if (!st.ok()) {
      std::fprintf(stderr, "op %llu (%s) failed: %s\n",
                   static_cast<unsigned long long>(i),
                   config.workload.c_str(), st.ToString().c_str());
      std::abort();
    }
  }
  for (int t = 0; t < config.threads; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }
  const RuntimeStats& after = rt.stats();

  RunResult r;
  r.total_ns = static_cast<double>(after.MaxThreadTime()) -
               static_cast<double>(before.MaxThreadTime());
  r.cc_region_ns = after.CcRegionNs() - before.CcRegionNs();
  r.app_ns = after.AppNs() - before.AppNs();
  r.overlap_ns = after.OverlapNs() - before.OverlapNs();
  r.data_movement_ns = after.CategoryNs(CcCategory::kDataMovement) -
                       before.CategoryNs(CcCategory::kDataMovement);
  r.metadata_ns = after.CategoryNs(CcCategory::kMetadata) -
                  before.CategoryNs(CcCategory::kMetadata);
  r.ordering_ns = after.CategoryNs(CcCategory::kOrdering) -
                  before.CategoryNs(CcCategory::kOrdering);
  r.allocation_ns = after.CategoryNs(CcCategory::kAllocation) -
                    before.CategoryNs(CcCategory::kAllocation);
  r.ops = config.ops;
  if (r.total_ns > 0) {
    r.throughput_mops = static_cast<double>(config.ops) * 1e3 / r.total_ns;
  }
  return r;
}

double MeanSpeedup(Mechanism mechanism, ExecMode mode, bool region_time,
                   const RunConfig& base) {
  std::vector<double> ratios;
  for (const std::string& name : EvaluatedWorkloads()) {
    RunConfig cfg = base;
    cfg.workload = name;
    cfg.mechanism = mechanism;
    cfg.mode = ExecMode::kCpuBaseline;
    const RunResult baseline = RunWorkload(cfg);
    cfg.mode = mode;
    const RunResult ndp = RunWorkload(cfg);
    const double num = region_time ? baseline.cc_region_ns : baseline.total_ns;
    const double den = region_time ? ndp.cc_region_ns : ndp.total_ns;
    if (den > 0) {
      ratios.push_back(num / den);
    }
  }
  return GeoMean(ratios);
}

serve::ServeRequest ServeMixRequest(std::uint64_t i,
                                    std::uint64_t multiput_every) {
  serve::ServeRequest req;
  if (multiput_every > 0 && i % multiput_every == 0) {
    req.kind = serve::RequestKind::kMultiPut;
    for (std::uint64_t j = 0; j < 4; ++j) {
      req.pairs.push_back(serve::KvPair{100000 + i + j * 31,
                                        std::vector<std::uint8_t>(8, 1)});
    }
  } else if (i % 3 == 2) {
    req.kind = serve::RequestKind::kGet;
    req.key = i / 2;
  } else {
    req.kind = serve::RequestKind::kPut;
    req.key = i;
    req.value = std::vector<std::uint8_t>(8, 2);
  }
  return req;
}

// ---- Shared entry point ------------------------------------------------------

namespace {

std::unique_ptr<TraceRecorder> g_bench_trace;
hwmodel::HwConfig g_bench_hw;

}  // namespace

TraceRecorder* BenchTrace() { return g_bench_trace.get(); }

const hwmodel::HwConfig& BenchHwConfig() { return g_bench_hw; }

MetricsRegistry& BenchMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

void AttachBenchTrace(Runtime& rt) {
  if (g_bench_trace == nullptr) {
    return;
  }
  rt.AttachTrace(g_bench_trace.get());
  // This Runtime's virtual clocks start at zero; keep its timestamps from
  // aliasing the previous run's.
  g_bench_trace->NextEpoch();
}

int BenchMain(int argc, char** argv, const std::string& figure) {
  std::string trace_out;
  std::string metrics_out;
  std::string json_out = "BENCH_" + figure + ".json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(sizeof("--trace-out=") - 1);
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      metrics_out = a.substr(sizeof("--metrics-out=") - 1);
    } else if (a.rfind("--json-out=", 0) == 0) {
      json_out = a.substr(sizeof("--json-out=") - 1);
    } else if (a.rfind("--hw-config=", 0) == 0) {
      auto hw = hwmodel::LoadHwConfigFile(a.substr(sizeof("--hw-config=") - 1));
      if (!hw.ok()) {
        std::fprintf(stderr, "--hw-config: %s\n",
                     hw.status().ToString().c_str());
        return 1;
      }
      g_bench_hw = *hw;
    } else {
      args.push_back(argv[i]);
    }
  }
  // Per-figure machine-readable results ride google-benchmark's JSON file
  // reporter; the console table is unchanged.
  std::vector<std::string> extra;
  if (!json_out.empty()) {
    extra.push_back("--benchmark_out=" + json_out);
    extra.push_back("--benchmark_out_format=json");
  }
  for (std::string& e : extra) {
    args.push_back(e.data());
  }
  args.push_back(nullptr);

  if (!trace_out.empty() || !metrics_out.empty()) {
    g_bench_trace = std::make_unique<TraceRecorder>();
  }

  int n = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!trace_out.empty()) {
    if (!WriteChromeTraceFile(*g_bench_trace, trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "trace: %llu events on %zu tracks (%llu dropped) -> %s\n",
                 static_cast<unsigned long long>(g_bench_trace->recorded()),
                 g_bench_trace->track_count(),
                 static_cast<unsigned long long>(g_bench_trace->dropped()),
                 trace_out.c_str());
    std::fputs(g_bench_trace->metrics().Report().c_str(), stderr);
  }
  if (!metrics_out.empty()) {
    MetricsRegistry merged;
    merged.MergeFrom(g_bench_trace->metrics());
    merged.MergeFrom(BenchMetrics());
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
    const std::string text = merged.ToPrometheus();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace bench
}  // namespace nearpm
