#include "bench/harness.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/serve/front_end.h"
#include "src/trace/chrome_exporter.h"
#include "tools/flags.h"

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

  WorkloadRun run;
  run.workload = config.workload;
  run.config.mechanism = config.mechanism;
  run.config.threads = config.threads;
  run.config.data_size = config.data_size;
  run.config.initial_keys = config.initial_keys;
  run.config.seed = config.seed;
  run.ops = config.ops;
  // Measure from the end of setup: snapshot-and-subtract keeps clocks
  // monotonic.
  const RuntimeStats before = DriveOrAbort(rt, run);
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

RuntimeStats DriveOrAbort(Runtime& rt, const WorkloadRun& run) {
  StatusOr<RuntimeStats> at_setup = DriveWorkload(rt, run);
  if (!at_setup.ok()) {
    std::fprintf(stderr, "%s\n", at_setup.status().ToString().c_str());
    std::abort();
  }
  return std::move(*at_setup);
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
    const char* value = nullptr;
    if (MatchFlag(argv[i], "--trace-out", &value)) {
      trace_out = value;
    } else if (MatchFlag(argv[i], "--metrics-out", &value)) {
      metrics_out = value;
    } else if (MatchFlag(argv[i], "--json-out", &value)) {
      json_out = value;
    } else if (MatchFlag(argv[i], "--hw-config", &value)) {
      auto hw = hwmodel::LoadHwConfigFile(value);
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
    std::fputs(g_bench_trace->metrics().Report().c_str(), stderr);
  }
  if (!metrics_out.empty()) {
    MetricsRegistry merged;
    merged.MergeFrom(g_bench_trace->metrics());
    merged.MergeFrom(BenchMetrics());
    if (!WriteOutput(metrics_out, merged.ToPrometheus())) {
      return 1;
    }
  }
  return 0;
}

}  // namespace bench
}  // namespace nearpm
