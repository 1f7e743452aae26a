// Replicated-tier characterization: throughput, commit latency and fabric
// traffic of the replicated KV service as the replication factor grows and
// between the two commit protocols.
//
// Not a paper figure -- this measures the src/net + src/repl subsystems the
// repo adds on top of the paper's single-machine model. The interesting
// comparison is pb vs redo at fixed cluster shape: one-sided redo takes the
// backup CPU write off the replication path (the primary writes the
// backup's PM and the NDP unit replays locally), so its commit p99 should
// sit below primary-backup's at equal message counts. Every number is
// deterministic simulated time from the Pump path, so the committed
// baseline gates regressions exactly.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/repl/service.h"

namespace nearpm {
namespace bench {
namespace {

struct ReplRun {
  double throughput_ops_per_sec = 0;
  double makespan_ns = 0;
  double commit_p99_ns = 0;
  double net_messages = 0;
  double txns = 0;
};

ReplRun RunRepl(int groups, int replicas, repl::ReplProtocol protocol,
                std::uint64_t requests, std::uint64_t multiput_every) {
  repl::ReplOptions ro;
  ro.groups = groups;
  ro.replicas = replicas;
  ro.protocol = protocol;
  ro.workers_per_shard = 2;
  ro.queue_capacity = 128;
  ro.batch_max = 8;
  auto svc = repl::ReplicatedKvService::Create(ro);
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

  const repl::ReplStats stats = (*svc)->Stats();
  ReplRun run;
  run.throughput_ops_per_sec = stats.throughput_ops_per_sec;
  run.makespan_ns = static_cast<double>(stats.makespan_ns);
  run.commit_p99_ns = static_cast<double>(stats.commit_p99_ns);
  run.net_messages = static_cast<double>(stats.net_messages);
  run.txns = static_cast<double>(stats.txns);
  if ((*svc)->PpoViolations() > 0) {
    std::abort();  // the bench must never trade correctness for speed
  }
  // Fold node + fabric observability into the process registry so
  // --metrics-out carries per-node duty cycles and per-link fabric duty
  // alongside the trace-derived metrics.
  (*svc)->ExportResourceMetrics();
  BenchMetrics().MergeFrom((*svc)->metrics());
  return run;
}

void RegisterAll() {
  // Replication factor at fixed group count: the cost of each extra copy.
  for (int replicas : {1, 2, 3}) {
    benchmark::RegisterBenchmark(
        ("repl/replicas:" + std::to_string(replicas)).c_str(),
        [replicas](benchmark::State& state) {
          ReplRun run;
          for (auto _ : state) {
            run = RunRepl(/*groups=*/2, replicas,
                          repl::ReplProtocol::kPrimaryBackup,
                          /*requests=*/400, /*multiput_every=*/50);
          }
          state.counters["throughput_ops_per_sec"] = run.throughput_ops_per_sec;
          state.counters["makespan_ns"] = run.makespan_ns;
          state.counters["commit_p99_ns"] = run.commit_p99_ns;
          state.counters["net_messages"] = run.net_messages;
          state.counters["txns"] = run.txns;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Protocol comparison at fixed cluster shape (2 groups x 2 replicas).
  for (const repl::ReplProtocol protocol :
       {repl::ReplProtocol::kPrimaryBackup,
        repl::ReplProtocol::kOneSidedRedo}) {
    benchmark::RegisterBenchmark(
        (std::string("repl/protocol:") + repl::ReplProtocolName(protocol))
            .c_str(),
        [protocol](benchmark::State& state) {
          ReplRun run;
          for (auto _ : state) {
            run = RunRepl(/*groups=*/2, /*replicas=*/2, protocol,
                          /*requests=*/400, /*multiput_every=*/50);
          }
          state.counters["throughput_ops_per_sec"] = run.throughput_ops_per_sec;
          state.counters["makespan_ns"] = run.makespan_ns;
          state.counters["commit_p99_ns"] = run.commit_p99_ns;
          state.counters["net_messages"] = run.net_messages;
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
  return nearpm::bench::BenchMain(argc, argv, "serve_repl");
}
