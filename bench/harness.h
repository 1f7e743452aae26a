// Shared benchmark harness: runs one workload configuration in the simulated
// platform and extracts the virtual-time metrics the paper's figures plot.
//
// Wall-clock time of these binaries is meaningless; every reported number is
// simulated nanoseconds from the runtime's cost model. Each binary prints a
// table mirroring one figure of the paper (see EXPERIMENTS.md).
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <string>

#include "src/hwmodel/hw_config.h"
#include "src/trace/recorder.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace serve {
struct ServeRequest;
}  // namespace serve

namespace bench {

struct RunConfig {
  std::string workload = "btree";
  Mechanism mechanism = Mechanism::kLogging;
  ExecMode mode = ExecMode::kCpuBaseline;
  int threads = 1;
  // > 0 overrides the geometry's unit count (bench_fig19_units sweeps it);
  // 0 inherits from the process-wide --hw-config geometry (the default).
  int units_per_device = 0;
  std::uint64_t ops = 400;  // total operations across all threads
  std::uint64_t initial_keys = 500;
  std::uint64_t data_size = 4ull << 20;
  std::uint64_t seed = 7;
};

struct RunResult {
  double total_ns = 0;       // end-to-end virtual time (max over threads)
  double cc_region_ns = 0;   // CPU time inside crash-consistency regions
  double app_ns = 0;         // CPU time outside them
  double overlap_ns = 0;     // CPU progress concurrent with NDP work
  double data_movement_ns = 0;
  double metadata_ns = 0;
  double ordering_ns = 0;
  double allocation_ns = 0;
  std::uint64_t ops = 0;
  double throughput_mops = 0;  // simulated ops per simulated second / 1e6

  double cc_fraction() const {
    return total_ns > 0 ? cc_region_ns / (cc_region_ns + app_ns) : 0;
  }
};

// Runs `config.ops` operations round-robin over the configured threads and
// returns metrics measured after the initial population (setup excluded).
RunResult RunWorkload(const RunConfig& config);

// DriveWorkload, aborting with the failed stage on stderr: a figure whose
// run fails has no number to report.
RuntimeStats DriveOrAbort(Runtime& rt, const WorkloadRun& run);

// Convenience: geometric-mean speedup of `mode` over the CPU baseline across
// all nine workloads for one mechanism, using region or end-to-end time.
double MeanSpeedup(Mechanism mechanism, ExecMode mode, bool region_time,
                   const RunConfig& base);

const char* ShortModeName(ExecMode mode);

// The serving benches' deterministic request mix: request i is a 4-key
// cross-shard MultiPut every `multiput_every`'th (keys 100000 + i + 31j;
// 0 disables), else a Get of key i/2 every third (half hit earlier puts,
// half miss), else a Put of key i.
serve::ServeRequest ServeMixRequest(std::uint64_t i,
                                    std::uint64_t multiput_every);

// ---- Shared entry point ------------------------------------------------------
// Every bench binary funnels through BenchMain, which understands two flags
// of its own before handing the rest to google-benchmark:
//
//   --trace-out=<file>  capture a structured event trace of every simulated
//                       run and write it as Chrome trace-event JSON
//                       (chrome://tracing or https://ui.perfetto.dev)
//   --json-out=<file>   machine-readable per-figure results (the
//                       google-benchmark JSON schema; counters carry the
//                       figure's numbers). Defaults to BENCH_<figure>.json
//                       next to the binary's working directory; pass an
//                       empty value to disable.
//   --metrics-out=<file> Prometheus text-format exposition of every metric
//                       the runs produced: per-phase counters and latency
//                       quantiles from the trace stream, occupancy gauges,
//                       and whatever the benchmark added to BenchMetrics().
//                       Implies trace capture (without the Chrome file).
//   --hw-config=<file>  load a hwmodel::HwConfig geometry and apply it to
//                       every harness-built Runtime (BenchHwConfig()).
//                       Without the flag the seed geometry is used and all
//                       committed baselines reproduce bit-for-bit.
//
// Returns the process exit code.
int BenchMain(int argc, char** argv, const std::string& figure);

// The process-wide device geometry: the --hw-config file if one was given,
// the calibrated default otherwise.
const hwmodel::HwConfig& BenchHwConfig();

// Process-wide registry for metrics a benchmark computes itself (e.g.
// bench_serve_shards merges each KvService's registry and per-shard duty
// gauges here). Written to --metrics-out together with the bench
// recorder's own registry.
MetricsRegistry& BenchMetrics();

// The process-wide bench recorder; null unless --trace-out was given (so
// instrumentation stays a single branch in performance runs).
TraceRecorder* BenchTrace();

// Attaches the bench recorder (when active) to a freshly built Runtime and
// opens a new trace epoch, since each Runtime's virtual clocks start at zero.
// Harness-made runtimes do this automatically; benchmarks that construct
// their own Runtime call it by hand.
void AttachBenchTrace(Runtime& rt);

}  // namespace bench
}  // namespace nearpm

#endif  // BENCH_HARNESS_H_
