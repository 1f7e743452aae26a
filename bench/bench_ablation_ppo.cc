// Ablation: what each PPO design choice buys.
//
// Not a paper figure -- this sweeps the design knobs DESIGN.md calls out:
//  * enforce_ppo off (the naive offload of Section 2.3) as the performance
//    upper bound that sacrifices recoverability;
//  * device count (PPO's delayed synchronization is what keeps adding
//    devices from adding synchronization cost, Section 9 Scalability);
//  * interleave granularity (how often commands are duplicated).
#include <benchmark/benchmark.h>

#include "bench/harness.h"

namespace nearpm {
namespace bench {
namespace {

struct AblationConfig {
  int devices = 2;
  std::uint64_t stripe = 256;
  bool enforce_ppo = true;
  ExecMode ndp_mode = ExecMode::kNdpMultiDelayed;
  int threads = 4;  // the knobs only bite under load
};

double Speedup(const std::string& workload, const AblationConfig& ac) {
  auto run = [&](ExecMode mode) {
    RuntimeOptions opts;
    opts.mode = mode;
    opts.num_devices = ac.devices;
    opts.interleave_stripe = ac.stripe;
    opts.enforce_ppo = ac.enforce_ppo;
    opts.max_threads = ac.threads;
    opts.pm_size = 512ull << 20;
    opts.retain_crash_state = false;
    Runtime rt(opts);
    AttachBenchTrace(rt);
    WorkloadRun spec;
    spec.workload = workload;
    spec.config.mechanism = Mechanism::kLogging;
    spec.config.threads = ac.threads;
    spec.config.data_size = 4ull << 20;
    spec.config.initial_keys = 400;
    spec.ops = 400 * static_cast<std::uint64_t>(ac.threads);
    spec.op_seed = 9;
    const SimTime start = DriveOrAbort(rt, spec).MaxThreadTime();
    return static_cast<double>(rt.stats().MaxThreadTime() - start);
  };
  return run(ExecMode::kCpuBaseline) / run(ac.ndp_mode);
}

void RegisterAll() {
  // Synchronization style: delayed (PPO), CPU-polled, and none (the naive
  // Section 2.3 offload, fast but unrecoverable).
  struct SyncStyle {
    const char* name;
    ExecMode mode;
    bool ppo;
  };
  for (const SyncStyle style :
       {SyncStyle{"delayed", ExecMode::kNdpMultiDelayed, true},
        SyncStyle{"sw_polled", ExecMode::kNdpMultiSwSync, true},
        SyncStyle{"none_unsafe", ExecMode::kNdpMultiDelayed, false}}) {
    benchmark::RegisterBenchmark(
        (std::string("ablation/sync:") + style.name).c_str(),
        [style](benchmark::State& state) {
          AblationConfig ac;
          ac.ndp_mode = style.mode;
          ac.enforce_ppo = style.ppo;
          double s = 0;
          for (auto _ : state) {
            s = Speedup("redis", ac);
          }
          state.counters["speedup"] = s;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (int devices : {1, 2, 4}) {
    benchmark::RegisterBenchmark(
        ("ablation/devices:" + std::to_string(devices)).c_str(),
        [devices](benchmark::State& state) {
          AblationConfig ac;
          ac.devices = devices;
          double s = 0;
          for (auto _ : state) {
            s = Speedup("redis", ac);
          }
          state.counters["speedup"] = s;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (std::uint64_t stripe : {256ull, 1024ull, 4096ull}) {
    benchmark::RegisterBenchmark(
        ("ablation/stripe:" + std::to_string(stripe)).c_str(),
        [stripe](benchmark::State& state) {
          AblationConfig ac;
          ac.stripe = stripe;
          double s = 0;
          for (auto _ : state) {
            s = Speedup("redis", ac);
          }
          state.counters["speedup"] = s;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace bench
}  // namespace nearpm

int main(int argc, char** argv) {
  nearpm::bench::RegisterAll();
  return nearpm::bench::BenchMain(argc, argv, "ablation_ppo");
}
