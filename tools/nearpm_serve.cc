// nearpm_serve: threaded smoke driver for the sharded KV serving layer.
//
// Spins up the service -- single-copy or replicated, both behind the one
// serving front end -- with real OS worker threads, pushes a deterministic
// request mix (puts, gets, periodic cross-shard MultiPuts) through the
// bounded queues, then reports throughput, latency percentiles, queue
// pressure and the PPO audit. Exit code is nonzero when the service made no
// progress or any shard's trace violates a Section 4 invariant -- CI runs
// this as the serve smoke gate.
//
//   --shards=N          serving shards (default 4)
//   --workers=N         OS worker threads per shard (default 4)
//   --requests=N        requests to submit (default 2000)
//   --multiput-every=N  every Nth request becomes a cross-shard MultiPut
//                       (0 disables; default 50)
//   --batch=N           requests per doorbell/fence (default 8)
//   --queue=N           per-shard queue capacity (default 64)
//   --json-out=FILE     machine-readable stats (single JSON object)
//   --metrics-out=FILE  Prometheus text exposition: serve counters, latency
//                       quantiles, per-shard duty-cycle/occupancy gauges
//   --replicas=K        replicated mode: --shards becomes the replica-group
//                       count and every group runs 1 primary + K-1 backups
//                       over the simulated fabric (default 1 = single copy)
//   --protocol=pb|redo  replication protocol in replicated mode: acked
//                       primary-backup log shipping or one-sided redo
//                       (primary writes the backup's PM, NDP replays)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/repl/service.h"
#include "src/serve/service.h"
#include "tools/flags.h"

namespace nearpm {
namespace serve {
namespace {

struct CliOptions {
  int shards = 4;
  int workers = 4;
  std::uint64_t requests = 2000;
  std::uint64_t multiput_every = 50;
  int batch = 8;
  std::size_t queue = 64;
  std::string json_out;
  std::string metrics_out;
  int replicas = 1;
  std::string protocol = "pb";
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards=N] [--workers=N] [--requests=N]\n"
               "          [--multiput-every=N] [--batch=N] [--queue=N]\n"
               "          [--json-out=FILE] [--metrics-out=FILE]\n"
               "          [--replicas=K] [--protocol=pb|redo]\n",
               argv0);
  return 2;
}

std::vector<std::uint8_t> ValueFor(std::uint64_t key, std::uint32_t size) {
  std::vector<std::uint8_t> value(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    value[i] = static_cast<std::uint8_t>(key * 7 + i);
  }
  return value;
}

// The deterministic request mix both tiers serve: every Nth request a
// 4-key MultiPut, every third a Get (half hit earlier puts, half miss), the
// rest Puts.
ServeRequest MakeRequest(std::uint64_t i, const CliOptions& cli,
                         std::uint32_t value_size) {
  ServeRequest req;
  if (cli.multiput_every > 0 && i % cli.multiput_every == 0) {
    req.kind = RequestKind::kMultiPut;
    for (std::uint64_t j = 0; j < 4; ++j) {
      const std::uint64_t key = 100000 + i + j * 31;
      req.pairs.push_back(KvPair{key, ValueFor(key, value_size)});
    }
  } else if (i % 3 == 2) {
    req.kind = RequestKind::kGet;
    req.key = i / 2;
  } else {
    req.kind = RequestKind::kPut;
    req.key = i;
    req.value = ValueFor(i, value_size);
  }
  return req;
}

// Pushes the mix through the front end with OS worker threads, waits for
// every completion and stops the workers. Returns the admissions rejected.
std::uint64_t Drive(FrontEnd& svc, const CliOptions& cli,
                    std::uint32_t value_size) {
  svc.Start();
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(cli.requests);
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < cli.requests; ++i) {
    const ServeRequest req = MakeRequest(i, cli, value_size);
    // Backpressure loop: a full queue rejects immediately; yield to the
    // workers and retry a few times before dropping the request.
    bool admitted = false;
    for (int attempt = 0; attempt < 1000 && !admitted; ++attempt) {
      ServeRequest copy = req;
      auto fut = svc.Submit(std::move(copy));
      if (fut.ok()) {
        futures.push_back(std::move(*fut));
        admitted = true;
      } else {
        ++rejected;
        std::this_thread::yield();
      }
    }
  }
  for (auto& fut : futures) {
    fut.get();  // Get misses are fine; only completion matters here
  }
  svc.Stop();
  return rejected;
}

// Prints the report and writes --json-out and --metrics-out. `repl`
// (replicated mode only) switches the topology line and keys and adds the
// fabric and commit lines, their JSON keys and the zero-traffic check.
int Report(FrontEnd& svc, const CliOptions& cli, const ServeStats& stats,
           const repl::ReplStats* repl, std::uint64_t rejected) {
  std::string report;
  const std::uint64_t violations = svc.PpoViolations(&report);

  if (repl != nullptr) {
    std::printf("repl smoke: %d groups x %d replicas (%s) x %d workers, "
                "batch_max=%d, queue=%zu\n",
                cli.shards, cli.replicas, cli.protocol.c_str(), cli.workers,
                cli.batch, cli.queue);
  } else {
    std::printf(
        "serve smoke: %d shards x %d workers, batch_max=%d, queue=%zu\n",
        cli.shards, cli.workers, cli.batch, cli.queue);
  }
  std::printf("  submitted:  %" PRIu64 " (%" PRIu64 " rejected by admission)\n",
              cli.requests, rejected);
  std::printf("  completed:  %" PRIu64 " (%" PRIu64 " puts, %" PRIu64
              " gets, %" PRIu64 " txns, %" PRIu64 " batches)\n",
              stats.completed, stats.puts, stats.gets, stats.txns,
              stats.batches);
  if (repl != nullptr) {
    std::printf("  fabric:     %" PRIu64 " messages\n", repl->net_messages);
  }
  std::printf("  makespan:   %" PRIu64 " simulated ns\n", stats.makespan_ns);
  std::printf("  latency:    p50=%" PRIu64 " ns, p99=%" PRIu64 " ns\n",
              stats.request_p50_ns, stats.request_p99_ns);
  if (repl != nullptr) {
    std::printf("  commit:     p50=%" PRIu64 " ns, p99=%" PRIu64 " ns\n",
                repl->commit_p50_ns, repl->commit_p99_ns);
  }
  std::printf("  throughput: %.0f ops/simulated-second\n",
              stats.throughput_ops_per_sec);
  std::printf("  PPO audit:  %" PRIu64 " violation(s)\n", violations);
  if (violations > 0) {
    std::printf("%s", report.c_str());
  }

  if (!cli.json_out.empty()) {
    std::ofstream out(cli.json_out, std::ios::trunc);
    out << "{\n";
    if (repl != nullptr) {
      out << "  \"groups\": " << cli.shards << ",\n"
          << "  \"replicas\": " << cli.replicas << ",\n"
          << "  \"protocol\": \"" << cli.protocol << "\",\n";
    } else {
      out << "  \"shards\": " << cli.shards << ",\n";
    }
    out << "  \"workers_per_shard\": " << cli.workers << ",\n"
        << "  \"completed\": " << stats.completed << ",\n"
        << "  \"rejected\": " << rejected << ",\n"
        << "  \"txns\": " << stats.txns << ",\n"
        << "  \"batches\": " << stats.batches << ",\n";
    if (repl != nullptr) {
      out << "  \"net_messages\": " << repl->net_messages << ",\n";
    }
    out << "  \"makespan_ns\": " << stats.makespan_ns << ",\n"
        << "  \"request_p50_ns\": " << stats.request_p50_ns << ",\n"
        << "  \"request_p99_ns\": " << stats.request_p99_ns << ",\n";
    if (repl != nullptr) {
      out << "  \"commit_p50_ns\": " << repl->commit_p50_ns << ",\n"
          << "  \"commit_p99_ns\": " << repl->commit_p99_ns << ",\n";
    }
    out << "  \"throughput_ops_per_sec\": " << stats.throughput_ops_per_sec
        << ",\n"
        << "  \"ppo_violations\": " << violations << "\n"
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_out.c_str());
      return 1;
    }
  }

  if (!cli.metrics_out.empty()) {
    // Fold every node's trace (and the fabric's) into per-resource gauges,
    // then merge the node recorders' phase counters/histograms into one
    // exposition.
    svc.ExportResourceMetrics();
    MetricsRegistry merged;
    merged.MergeFrom(svc.metrics());
    for (int n = 0; n < svc.num_nodes(); ++n) {
      merged.MergeFrom(svc.node(n).recorder().metrics());
    }
    std::ofstream out(cli.metrics_out, std::ios::trunc);
    out << merged.ToPrometheus();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.metrics_out.c_str());
      return 1;
    }
  }

  if (stats.completed == 0 || stats.throughput_ops_per_sec <= 0) {
    std::fprintf(stderr, "FAIL: the %s made no progress\n",
                 repl != nullptr ? "replicated service" : "service");
    return 1;
  }
  if (repl != nullptr && repl->net_messages == 0) {
    std::fprintf(stderr, "FAIL: no replication traffic on the fabric\n");
    return 1;
  }
  if (violations > 0) {
    std::fprintf(stderr, "FAIL: PPO invariant violations\n");
    return 1;
  }
  return 0;
}

int ServeMain(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    std::uint64_t n = 0;
    if (MatchFlag(argv[i], "--shards", &value)) {
      if (!ParseCount(value, &cli.shards)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--workers", &value)) {
      if (!ParseCount(value, &cli.workers)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--requests", &value)) {
      if (!ParseUint(value, &cli.requests)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--multiput-every", &value)) {
      if (!ParseUint(value, &cli.multiput_every)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--batch", &value)) {
      if (!ParseCount(value, &cli.batch)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--queue", &value)) {
      if (!ParseUint(value, &n) || n == 0) return Usage(argv[0]);
      cli.queue = static_cast<std::size_t>(n);
    } else if (MatchFlag(argv[i], "--json-out", &value)) {
      cli.json_out = value;
    } else if (MatchFlag(argv[i], "--metrics-out", &value)) {
      cli.metrics_out = value;
    } else if (MatchFlag(argv[i], "--replicas", &value)) {
      if (!ParseCount(value, &cli.replicas)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--protocol", &value)) {
      cli.protocol = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  if (cli.replicas > 1) {
    // Replicated smoke: every write is a replicated commit, so progress
    // exercises the fabric, the commit protocol and the cross-replica
    // retire path end to end.
    auto protocol = repl::ReplProtocolFromName(cli.protocol);
    if (!protocol.ok()) {
      std::fprintf(stderr, "%s\n", protocol.status().ToString().c_str());
      return 2;
    }
    repl::ReplOptions ro;
    ro.groups = cli.shards;
    ro.replicas = cli.replicas;
    ro.protocol = *protocol;
    ro.workers_per_shard = cli.workers;
    ro.queue_capacity = cli.queue;
    ro.batch_max = cli.batch;
    auto svc = repl::ReplicatedKvService::Create(ro);
    if (!svc.ok()) {
      std::fprintf(stderr, "cannot create replicated service: %s\n",
                   svc.status().ToString().c_str());
      return 1;
    }
    const std::uint64_t rejected = Drive(**svc, cli, ro.value_size);
    const repl::ReplStats stats = (*svc)->Stats();
    return Report(**svc, cli, stats, &stats, rejected);
  }

  ServeOptions so;
  so.shards = cli.shards;
  so.workers_per_shard = cli.workers;
  so.queue_capacity = cli.queue;
  so.batch_max = cli.batch;
  auto svc = KvService::Create(so);
  if (!svc.ok()) {
    std::fprintf(stderr, "cannot create service: %s\n",
                 svc.status().ToString().c_str());
    return 1;
  }
  const std::uint64_t rejected = Drive(**svc, cli, so.value_size);
  return Report(**svc, cli, (*svc)->Stats(), nullptr, rejected);
}

}  // namespace
}  // namespace serve
}  // namespace nearpm

int main(int argc, char** argv) {
  return nearpm::serve::ServeMain(argc, argv);
}
