// Serving-layer scaling: throughput and latency of the sharded KV front end
// as independent NearPM machines are added.
//
// Not a paper figure -- this measures the src/serve subsystem the repo adds
// on top of the paper's single-machine model: N shards, bounded queues,
// request batching (one doorbell/fence per batch) and periodic cross-shard
// MultiPuts. Every number is deterministic simulated time from the Pump
// path, so the committed baseline gates regressions exactly.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/serve/service.h"

namespace nearpm {
namespace bench {
namespace {

struct ServeRun {
  double throughput_ops_per_sec = 0;
  double makespan_ns = 0;
  double p99_ns = 0;
  double txns = 0;
};

ServeRun RunServe(int shards, int batch_max, std::uint64_t requests,
                  std::uint64_t multiput_every) {
  serve::ServeOptions so;
  so.shards = shards;
  so.workers_per_shard = 2;
  so.queue_capacity = 128;
  so.batch_max = batch_max;
  auto svc = serve::KvService::Create(so);
  if (!svc.ok()) {
    std::abort();
  }

  for (std::uint64_t i = 0; i < requests; ++i) {
    if (!(*svc)->Submit(ServeMixRequest(i, multiput_every)).ok()) {
      (*svc)->Pump();  // backpressure: drain, then retry deterministically
      --i;
    }
  }
  (*svc)->Pump();

  const serve::ServeStats stats = (*svc)->Stats();
  ServeRun run;
  run.throughput_ops_per_sec = stats.throughput_ops_per_sec;
  run.makespan_ns = static_cast<double>(stats.makespan_ns);
  run.p99_ns = static_cast<double>(stats.request_p99_ns);
  run.txns = static_cast<double>(stats.txns);
  if ((*svc)->PpoViolations() > 0) {
    std::abort();  // the bench must never trade correctness for speed
  }
  // Fold this service's observability into the process registry so
  // --metrics-out carries serve counters, latency quantiles and per-shard
  // per-unit duty cycles alongside the trace-derived metrics.
  (*svc)->ExportResourceMetrics();
  BenchMetrics().MergeFrom((*svc)->metrics());
  for (int s = 0; s < (*svc)->num_shards(); ++s) {
    BenchMetrics().MergeFrom((*svc)->shard(s).recorder().metrics());
  }
  return run;
}

// Threaded hot-path throughput: real OS worker threads draining the shard
// rings while `clients` submitter threads push puts/gets as fast as
// admission allows. Unlike the Pump entries this measures *wall-clock*
// ops/sec of the queue + metrics hot path, so it is nondeterministic and
// deliberately absent from the committed baseline; CI only asserts
// progress. It is the number the lock-free ring exists to move.
ServeRun RunThreadedServe(int shards, int clients,
                          std::uint64_t requests_per_client) {
  serve::ServeOptions so;
  so.shards = shards;
  so.workers_per_shard = 2;
  so.queue_capacity = 256;
  so.batch_max = 8;
  auto svc = serve::KvService::Create(so);
  if (!svc.ok()) {
    std::abort();
  }
  (*svc)->Start();

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&svc, c, requests_per_client] {
      for (std::uint64_t i = 0; i < requests_per_client; ++i) {
        serve::ServeRequest req;
        const std::uint64_t key =
            static_cast<std::uint64_t>(c) * requests_per_client + i;
        if (i % 3 == 2) {
          req.kind = serve::RequestKind::kGet;
          req.key = key / 2;
        } else {
          req.kind = serve::RequestKind::kPut;
          req.key = key;
          req.value = std::vector<std::uint8_t>(8, 2);
        }
        // Backpressure: a full ring rejects; yield to the workers and retry.
        while (true) {
          serve::ServeRequest copy = req;
          if ((*svc)->Submit(std::move(copy)).ok()) {
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  (*svc)->Stop();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const serve::ServeStats stats = (*svc)->Stats();
  ServeRun run;
  run.throughput_ops_per_sec =
      wall_s > 0 ? static_cast<double>(stats.completed) / wall_s : 0;
  run.makespan_ns = static_cast<double>(stats.makespan_ns);
  run.p99_ns = static_cast<double>(stats.request_p99_ns);
  if (stats.completed == 0 || (*svc)->PpoViolations() > 0) {
    std::abort();
  }
  return run;
}

void RegisterAll() {
  for (int shards : {1, 2, 4}) {
    benchmark::RegisterBenchmark(
        ("serve/shards:" + std::to_string(shards)).c_str(),
        [shards](benchmark::State& state) {
          ServeRun run;
          for (auto _ : state) {
            run = RunServe(shards, /*batch_max=*/8, /*requests=*/600,
                           /*multiput_every=*/50);
          }
          state.counters["throughput_ops_per_sec"] = run.throughput_ops_per_sec;
          state.counters["makespan_ns"] = run.makespan_ns;
          state.counters["p99_ns"] = run.p99_ns;
          state.counters["txns"] = run.txns;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Threaded wall-clock hot path (the acceptance number for the lock-free
  // ring): 4 shards x 4 submitter clients, 25k requests per client.
  benchmark::RegisterBenchmark(
      "serve/threaded:4x4",
      [](benchmark::State& state) {
        ServeRun run;
        for (auto _ : state) {
          run = RunThreadedServe(/*shards=*/4, /*clients=*/4,
                                 /*requests_per_client=*/25000);
        }
        state.counters["wall_ops_per_sec"] = run.throughput_ops_per_sec;
        state.counters["p99_ns"] = run.p99_ns;
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  // The amortization knob at fixed shard count: per-request doorbell/fence
  // versus one per batch of 8.
  for (int batch : {1, 8}) {
    benchmark::RegisterBenchmark(
        ("serve/batch:" + std::to_string(batch)).c_str(),
        [batch](benchmark::State& state) {
          ServeRun run;
          for (auto _ : state) {
            run = RunServe(/*shards=*/2, batch, /*requests=*/600,
                           /*multiput_every=*/0);
          }
          state.counters["throughput_ops_per_sec"] = run.throughput_ops_per_sec;
          state.counters["makespan_ns"] = run.makespan_ns;
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
  return nearpm::bench::BenchMain(argc, argv, "serve_shards");
}
