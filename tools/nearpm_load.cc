// nearpm_load: the threaded load driver for both serving tiers.
//
// Drives the threaded (Start/Stop) hot path -- lock-free rings, real OS
// workers -- of the single-copy service or, with --replicas=K > 1, of the
// replicated one, under three load models:
//
//   * closed loop: N client threads, one outstanding request each; a client
//     submits, blocks on the completion future, then immediately issues the
//     next request. Throughput is admission-limited, latency is the
//     round-trip a synchronous caller sees.
//   * open loop: requests arrive on a fixed schedule (--qps) regardless of
//     how fast the service drains. Request i's *intended* start is
//     t0 + i/qps; latency is measured from the intended start, not the
//     actual submit, so queueing delay the pacer absorbed still counts
//     (the coordinated-omission correction). A full ring counts a drop
//     instead of silently re-pacing.
//   * burst: one submitter pushes every request before it waits for any, so
//     all of them are outstanding at once -- the most ring pressure a
//     single caller can make. A full ring is retried after a yield, never
//     dropped.
//
// One request stream feeds every mode. Keys are drawn zipfian(theta) over
// --keys (theta=0 is uniform; theta>1 is supported via an exact inverse-CDF
// table, not the YCSB approximation); every --get-every'th request is a Get
// and every --multiput-every'th a MultiPut of distinct keys. The generator
// is seeded, so the request *stream* is reproducible; wall numbers are not,
// and the committed baseline gates only the simulated-time counters and
// exact completion counts.
//
// Exit code is nonzero when a loop loses a request (every request must
// complete; the open loop alone may drop some at a full ring), any node's
// trace fails the PPO audit, a replicated run sends nothing over the
// fabric, a breach dump or an output file cannot be written -- load must
// never outrun correctness.
//
//   --mode=closed|open|burst|both   load model; both = closed, then open
//                             (default both)
//   --shards=N                shards, or replica groups with --replicas
//                             (default 4)
//   --replicas=K              nodes per group: 1 = single copy (default);
//                             K > 1 = a primary and K-1 backups on the fabric
//   --protocol=pb|redo        commit protocol with --replicas > 1: acked
//                             primary-backup or one-sided redo (default pb)
//   --workers=N               OS worker threads per shard (default 2)
//   --queue=N                 per-shard ring capacity (default 256)
//   --batch=N                 requests per doorbell/fence (default 8)
//   --clients=N               closed-loop client threads (default 4)
//   --requests=N              requests per loop (default 100000)
//   --keys=N                  keyspace size (default 4096)
//   --table-slots=N           per-shard table capacity (default 4096)
//   --zipf=T                  zipfian theta >= 0, 0 = uniform (default 0.99)
//   --get-every=N             every Nth request is a Get (0 disables;
//                             default 3)
//   --multiput-every=N        every Nth request is a MultiPut of 4 distinct
//                             keys (0 disables; default 0)
//   --qps=N                   open-loop arrival rate (default 50000)
//   --seed=N                  key-stream seed (default 42)
//   --json-out=FILE           google-benchmark-schema JSON (check_bench gate)
//   --hist-out=FILE           wall-latency histograms, one line per bucket
//   --metrics-out=FILE        Prometheus text of every loop's service:
//                             counters, quantiles, per-node and fabric duty
//   --slo=FILE                arm the SLO watchdog with this spec (JSON,
//                             see src/obs/slo.h; configs/slo-default.json)
//   --flight-dump=FILE        where a breach dumps the flight record; the
//                             file is only created when an alert fires,
//                             so the flag needs --slo
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/slo.h"
#include "src/repl/service.h"
#include "src/serve/service.h"
#include "tools/flags.h"

namespace nearpm {
namespace serve {
namespace {

enum class Mode { kClosed, kOpen, kBurst };

// Pairs per generated MultiPut.
constexpr std::uint64_t kMultiPutPairs = 4;

struct CliOptions {
  std::vector<Mode> modes = {Mode::kClosed, Mode::kOpen};
  int shards = 4;
  int replicas = 1;
  repl::ReplProtocol protocol = repl::ReplProtocol::kPrimaryBackup;
  int workers = 2;
  std::size_t queue = 256;
  int batch = 8;
  int clients = 4;
  std::uint64_t requests = 100000;
  std::uint64_t keys = 4096;
  std::uint32_t table_slots = 4096;
  double zipf = 0.99;
  std::uint64_t get_every = 3;
  std::uint64_t multiput_every = 0;
  std::uint64_t qps = 50000;
  std::uint64_t seed = 42;
  std::string json_out;
  std::string hist_out;
  std::string metrics_out;
  std::optional<obs::SloSpec> slo;
  std::string flight_dump;
};

// Exact zipfian(theta) sampler over [0, n): cumulative inverse-CDF table +
// binary search. Handles any theta >= 0 (including theta >= 1, where the
// usual YCSB closed form does not apply). Table build is O(n) once.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
      : rng_(seed), uniform_(0.0, 1.0) {
    cdf_.reserve(n);
    double total = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  std::uint64_t Next() {
    const double u = uniform_(rng_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uniform_;
  std::vector<double> cdf_;
};

// The one request stream every mode draws from: request i is a MultiPut
// every multiput_every'th, else a Get every get_every'th, else a Put, each
// on zipfian keys. A MultiPut's keys are distinct: a drawn key already in
// the set moves to the next free one (the flag parser requires
// keys >= kMultiPutPairs), so a skewed stream still terminates.
class RequestStream {
 public:
  RequestStream(const CliOptions& cli, std::uint64_t seed)
      : cli_(cli), zipf_(cli.keys, cli.zipf, seed) {}

  ServeRequest Next(std::uint64_t i) {
    ServeRequest req;
    if (Every(i, cli_.multiput_every)) {
      req.kind = RequestKind::kMultiPut;
      while (req.pairs.size() < kMultiPutPairs) {
        std::uint64_t key = zipf_.Next();
        while (std::any_of(req.pairs.begin(), req.pairs.end(),
                           [key](const KvPair& p) { return p.key == key; })) {
          key = (key + 1) % cli_.keys;
        }
        req.pairs.push_back(KvPair{key, Value(key)});
      }
      return req;
    }
    req.key = zipf_.Next();
    if (Every(i, cli_.get_every)) {
      req.kind = RequestKind::kGet;
    } else {
      req.kind = RequestKind::kPut;
      req.value = Value(req.key);
    }
    return req;
  }

 private:
  static bool Every(std::uint64_t i, std::uint64_t n) {
    return n > 0 && i % n == n - 1;
  }
  static std::vector<std::uint8_t> Value(std::uint64_t key) {
    return std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(key & 0xff));
  }

  const CliOptions& cli_;
  ZipfGenerator zipf_;
};

struct LoopResult {
  Mode mode = Mode::kClosed;
  std::string name;
  std::uint64_t completed = 0;
  // Admissions a full ring rejected: retried in the closed loop and burst,
  // dropped in the open loop.
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;  // non-OK completions (e.g. Get misses)
  double wall_seconds = 0;
  double wall_ops_per_sec = 0;
  std::uint64_t wall_p50_ns = 0;
  std::uint64_t wall_p99_ns = 0;
  double sim_ops_per_sec = 0;  // completed / makespan, simulated time
  std::uint64_t sim_p99_ns = 0;
  std::uint64_t ppo_violations = 0;
  std::string ppo_report;
  Histogram wall_latency_ns;
  bool replicated = false;
  std::uint64_t net_messages = 0;
  std::uint64_t commit_p50_ns = 0;
  std::uint64_t commit_p99_ns = 0;
  bool slo_armed = false;
  std::uint64_t slo_checks = 0;
  std::uint64_t slo_alerts = 0;
  std::uint64_t slo_dump_failures = 0;
  std::vector<obs::SlowRequest> slo_slowest;  // from the last alert
};

StatusOr<std::unique_ptr<FrontEnd>> MakeService(const CliOptions& cli) {
  FrontEndOptions fo;
  fo.workers_per_shard = cli.workers;
  fo.queue_capacity = cli.queue;
  fo.batch_max = cli.batch;
  fo.table_slots = cli.table_slots;
  fo.slo = cli.slo;
  fo.slo_dump_path = cli.flight_dump;
  if (cli.replicas > 1) {
    repl::ReplOptions ro;
    static_cast<FrontEndOptions&>(ro) = fo;
    ro.groups = cli.shards;
    ro.replicas = cli.replicas;
    ro.protocol = cli.protocol;
    auto svc = repl::ReplicatedKvService::Create(ro);
    if (!svc.ok()) {
      return svc.status();
    }
    return std::unique_ptr<FrontEnd>(std::move(*svc));
  }
  ServeOptions so;
  static_cast<FrontEndOptions&>(so) = fo;
  so.shards = cli.shards;
  auto svc = KvService::Create(so);
  if (!svc.ok()) {
    return svc.status();
  }
  return std::unique_ptr<FrontEnd>(std::move(*svc));
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// Admits `req`, retrying after a yield while the ring is full.
std::future<ServeResult> SubmitUntilAdmitted(FrontEnd& svc,
                                             const ServeRequest& req) {
  while (true) {
    auto submitted = svc.Submit(req);
    if (submitted.ok()) {
      return std::move(*submitted);
    }
    std::this_thread::yield();  // backpressure: retry
  }
}

// Closed loop: `clients` threads, one outstanding request each, splitting
// the requests as evenly as they divide.
void RunClosed(FrontEnd& svc, const CliOptions& cli, LoopResult* result) {
  const auto clients = static_cast<std::uint64_t>(cli.clients);
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::uint64_t count =
          cli.requests / clients + (c < cli.requests % clients ? 1 : 0);
      RequestStream stream(cli, cli.seed + c);
      for (std::uint64_t i = 0; i < count; ++i) {
        const ServeRequest req = stream.Next(i);
        const auto t0 = std::chrono::steady_clock::now();
        const ServeResult res = SubmitUntilAdmitted(svc, req).get();
        result->wall_latency_ns.Add(ElapsedNs(t0));
        if (!res.status.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  result->errors = errors.load();
}

// Open loop: one pacer thread submits on the arrival schedule from `t0` and
// a harvester joins completions in submission order. Latency is stamped
// against the *intended* start (t0 + i/qps). Harvesting in order can charge
// a fast completion with a slow predecessor's wait (head-of-line, the wrk2
// trade-off), which only ever *overstates* latency -- safe for a gate.
void RunOpen(FrontEnd& svc, const CliOptions& cli,
             std::chrono::steady_clock::time_point t0, LoopResult* result) {
  struct Inflight {
    std::future<ServeResult> done;
    std::chrono::steady_clock::time_point intended;
  };
  // Bounded handoff pacer -> harvester: one slot per request, published by
  // the release store of `produced`.
  std::vector<Inflight> inflight(cli.requests);
  std::atomic<std::uint64_t> produced{0};
  std::atomic<bool> pacing_done{false};
  const double ns_per_req =
      cli.qps > 0 ? 1e9 / static_cast<double>(cli.qps) : 0;

  std::thread pacer([&] {
    RequestStream stream(cli, cli.seed);
    for (std::uint64_t i = 0; i < cli.requests; ++i) {
      const auto intended =
          t0 + std::chrono::nanoseconds(
                   static_cast<std::uint64_t>(ns_per_req *
                                              static_cast<double>(i)));
      std::this_thread::sleep_until(intended);
      auto submitted = svc.Submit(stream.Next(i));
      if (!submitted.ok()) {
        // Open loop: the arrival happened, the service shed it (the front
        // end counts the rejection). Do not retry: that would re-couple
        // arrivals to service speed, the exact coordination the loop exists
        // to avoid.
        continue;
      }
      const std::uint64_t slot = produced.load(std::memory_order_relaxed);
      inflight[slot].done = std::move(*submitted);
      inflight[slot].intended = intended;
      produced.store(slot + 1, std::memory_order_release);
    }
    pacing_done.store(true, std::memory_order_release);
  });

  std::thread harvester([&] {
    std::uint64_t next = 0;
    while (true) {
      if (next < produced.load(std::memory_order_acquire)) {
        const ServeResult res = inflight[next].done.get();
        result->wall_latency_ns.Add(ElapsedNs(inflight[next].intended));
        if (!res.status.ok()) {
          ++result->errors;
        }
        ++next;
        continue;
      }
      if (pacing_done.load(std::memory_order_acquire) &&
          next >= produced.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::yield();
    }
  });

  pacer.join();
  harvester.join();
}

// Burst: submit everything, then join every future in submission order.
// Latency runs from a request's admission to its join, so like the open
// loop's it can only overstate.
void RunBurst(FrontEnd& svc, const CliOptions& cli, LoopResult* result) {
  RequestStream stream(cli, cli.seed);
  std::vector<std::future<ServeResult>> futures;
  std::vector<std::chrono::steady_clock::time_point> admitted;
  futures.reserve(cli.requests);
  admitted.reserve(cli.requests);
  for (std::uint64_t i = 0; i < cli.requests; ++i) {
    futures.push_back(SubmitUntilAdmitted(svc, stream.Next(i)));
    admitted.push_back(std::chrono::steady_clock::now());
  }
  for (std::uint64_t i = 0; i < cli.requests; ++i) {
    const ServeResult res = futures[i].get();
    result->wall_latency_ns.Add(ElapsedNs(admitted[i]));
    if (!res.status.ok()) {
      ++result->errors;
    }
  }
}

std::string LoopName(const CliOptions& cli, Mode mode) {
  std::string name;
  switch (mode) {
    case Mode::kClosed:
      name = "load/closed:" + std::to_string(cli.shards) + "x" +
             std::to_string(cli.clients);
      break;
    case Mode::kOpen:
      name = "load/open:" + std::to_string(cli.shards) + "shards";
      break;
    case Mode::kBurst:
      name = "load/burst:" + std::to_string(cli.shards) + "x" +
             std::to_string(cli.workers);
      break;
  }
  if (cli.replicas > 1) {
    name += "/replicas:" + std::to_string(cli.replicas) + ":" +
            repl::ReplProtocolName(cli.protocol);
  }
  return name;
}

// Runs one load model on a fresh service and fills in everything the report
// needs. With --metrics-out, the service's exposition (and its nodes' trace
// metrics) is merged into `metrics`.
LoopResult RunLoop(const CliOptions& cli, Mode mode, MetricsRegistry* metrics) {
  LoopResult result;
  result.mode = mode;
  result.name = LoopName(cli, mode);
  auto created = MakeService(cli);
  if (!created.ok()) {
    std::fprintf(stderr, "service: %s\n", created.status().ToString().c_str());
    std::exit(2);
  }
  FrontEnd& svc = **created;
  svc.Start();
  const auto wall_start = std::chrono::steady_clock::now();
  switch (mode) {
    case Mode::kClosed:
      RunClosed(svc, cli, &result);
      break;
    case Mode::kOpen:
      RunOpen(svc, cli, wall_start, &result);
      break;
    case Mode::kBurst:
      RunBurst(svc, cli, &result);
      break;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  svc.Stop();

  const ServeStats stats = svc.Stats();
  result.completed = stats.completed;
  result.rejected = stats.rejected;
  result.sim_ops_per_sec = stats.throughput_ops_per_sec;
  result.sim_p99_ns = stats.request_p99_ns;
  result.wall_ops_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.completed) / result.wall_seconds
          : 0;
  result.wall_p50_ns = result.wall_latency_ns.Percentile(0.5);
  result.wall_p99_ns = result.wall_latency_ns.Percentile(0.99);
  result.ppo_violations = svc.PpoViolations(&result.ppo_report);
  if (const auto* replicated =
          dynamic_cast<const repl::ReplicatedKvService*>(&svc)) {
    const repl::ReplStats repl_stats = replicated->Stats();
    result.replicated = true;
    result.net_messages = repl_stats.net_messages;
    result.commit_p50_ns = repl_stats.commit_p50_ns;
    result.commit_p99_ns = repl_stats.commit_p99_ns;
  }
  if (const obs::SloWatchdog* wd = svc.watchdog(); wd != nullptr) {
    result.slo_armed = true;
    result.slo_checks = wd->checks();
    result.slo_alerts = wd->alert_count();
    result.slo_dump_failures = wd->dump_failures();
    const std::vector<obs::SloAlert> alerts = wd->alerts();
    if (!alerts.empty()) {
      result.slo_slowest = alerts.back().window.slowest;
    }
  }
  if (!cli.metrics_out.empty()) {
    // Fold every node's trace (and the fabric's) into per-resource gauges,
    // then merge the node recorders' phase counters/histograms in.
    svc.ExportResourceMetrics();
    metrics->MergeFrom(svc.metrics());
    for (int n = 0; n < svc.num_nodes(); ++n) {
      metrics->MergeFrom(svc.node(n).recorder().metrics());
    }
  }
  return result;
}

void PrintLoop(const LoopResult& r) {
  std::printf(
      "%-20s completed=%" PRIu64 " rejected=%" PRIu64 " errors=%" PRIu64
      "\n  wall: %.3fs  %.0f ops/s  p50=%" PRIu64 "ns p99=%" PRIu64
      "ns\n  sim:  %.0f ops/s  p99=%" PRIu64 "ns\n  ppo_violations=%" PRIu64
      "\n",
      r.name.c_str(), r.completed, r.rejected, r.errors, r.wall_seconds,
      r.wall_ops_per_sec, r.wall_p50_ns, r.wall_p99_ns, r.sim_ops_per_sec,
      r.sim_p99_ns, r.ppo_violations);
  if (r.replicated) {
    std::printf("  fabric: %" PRIu64 " messages", r.net_messages);
    std::printf("  commit p50=%" PRIu64 "ns p99=%" PRIu64 "ns\n",
                r.commit_p50_ns, r.commit_p99_ns);
  }
  if (r.slo_armed) {
    std::printf("  slo:  checks=%" PRIu64 " alerts=%" PRIu64, r.slo_checks,
                r.slo_alerts);
    if (!r.slo_slowest.empty()) {
      std::printf("  slowest=[");
      for (std::size_t i = 0; i < r.slo_slowest.size(); ++i) {
        std::printf("%s%" PRIu64 ":%" PRIu64 "ns", i > 0 ? ", " : "",
                    r.slo_slowest[i].trace, r.slo_slowest[i].latency_ns);
      }
      std::printf("]");
    }
    std::printf("\n");
  }
  if (r.ppo_violations > 0) {
    std::printf("%s", r.ppo_report.c_str());
  }
}

// Checks one loop's verdict; false (with the reasons on stderr) fails the
// run.
bool Healthy(const LoopResult& r, const CliOptions& cli) {
  bool healthy = true;
  // Every request completes; only the open loop sheds (one rejection per
  // dropped arrival, never retried).
  const std::uint64_t shed = r.mode == Mode::kOpen ? r.rejected : 0;
  if (r.completed == 0 || r.wall_ops_per_sec <= 0) {
    std::fprintf(stderr, "%s: no progress\n", r.name.c_str());
    healthy = false;
  } else if (r.completed + shed != cli.requests) {
    std::fprintf(stderr, "%s: %" PRIu64 " of %" PRIu64 " requests completed\n",
                 r.name.c_str(), r.completed, cli.requests);
    healthy = false;
  }
  if (r.ppo_violations > 0) {
    std::fprintf(stderr, "%s: %" PRIu64 " PPO violations\n", r.name.c_str(),
                 r.ppo_violations);
    healthy = false;
  }
  if (r.replicated && r.net_messages == 0) {
    std::fprintf(stderr, "%s: no replication traffic on the fabric\n",
                 r.name.c_str());
    healthy = false;
  }
  if (r.slo_dump_failures > 0) {
    std::fprintf(stderr, "%s: %" PRIu64 " breach dump(s) to %s not written\n",
                 r.name.c_str(), r.slo_dump_failures, cli.flight_dump.c_str());
    healthy = false;
  }
  return healthy;
}

void AppendJson(std::string* out, const LoopResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"iterations\": 1,\n"
      "      \"completed\": %" PRIu64 ",\n"
      "      \"rejected\": %" PRIu64 ",\n"
      "      \"errors\": %" PRIu64 ",\n"
      "      \"ppo_violations\": %" PRIu64 ",\n"
      "      \"sim_ops_per_sec\": %.1f,\n"
      "      \"sim_p99_ns\": %" PRIu64 ",\n"
      "      \"wall_ops_per_sec\": %.1f,\n"
      "      \"wall_p50_ns\": %" PRIu64 ",\n"
      "      \"wall_p99_ns\": %" PRIu64,
      r.name.c_str(), r.completed, r.rejected, r.errors, r.ppo_violations,
      r.sim_ops_per_sec, r.sim_p99_ns, r.wall_ops_per_sec, r.wall_p50_ns,
      r.wall_p99_ns);
  *out += buf;
  if (r.replicated) {
    *out += ",\n      \"net_messages\": " + std::to_string(r.net_messages) +
            ",\n      \"commit_p50_ns\": " + std::to_string(r.commit_p50_ns) +
            ",\n      \"commit_p99_ns\": " + std::to_string(r.commit_p99_ns);
  }
  *out += "\n    }";
}

void AppendHist(std::string* out, const LoopResult& r) {
  *out += "# " + r.name + " wall latency (bucket_upper_ns count)\n";
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t population = r.wall_latency_ns.bucket(i);
    if (population == 0) {
      continue;
    }
    const std::uint64_t upper = i == 0 ? 0 : (1ull << i) - 1;
    *out += std::to_string(upper) + " " + std::to_string(population) + "\n";
  }
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--mode=closed|open|burst|both] [--shards=N]\n"
      "          [--replicas=K] [--protocol=pb|redo] [--workers=N]\n"
      "          [--queue=N] [--batch=N] [--clients=N] [--requests=N]\n"
      "          [--keys=N] [--table-slots=N] [--zipf=T] [--get-every=N]\n"
      "          [--multiput-every=N] [--qps=N] [--seed=N]\n"
      "          [--json-out=FILE] [--hist-out=FILE] [--metrics-out=FILE]\n"
      "          [--slo=FILE] [--flight-dump=FILE]\n",
      argv0);
  return 2;
}

int Run(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    std::uint64_t n = 0;
    int count = 0;
    if (MatchFlag(argv[i], "--mode", &value)) {
      const std::string mode = value;
      if (mode == "closed") {
        cli.modes = {Mode::kClosed};
      } else if (mode == "open") {
        cli.modes = {Mode::kOpen};
      } else if (mode == "burst") {
        cli.modes = {Mode::kBurst};
      } else if (mode == "both") {
        cli.modes = {Mode::kClosed, Mode::kOpen};
      } else {
        return Usage(argv[0]);
      }
    } else if (MatchFlag(argv[i], "--shards", &value)) {
      if (!ParseCount(value, &cli.shards)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--replicas", &value)) {
      if (!ParseCount(value, &cli.replicas)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--protocol", &value)) {
      const auto protocol = repl::ReplProtocolFromName(value);
      if (!protocol.ok()) {
        std::fprintf(stderr, "%s\n", protocol.status().ToString().c_str());
        return Usage(argv[0]);
      }
      cli.protocol = *protocol;
    } else if (MatchFlag(argv[i], "--workers", &value)) {
      if (!ParseCount(value, &cli.workers)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--queue", &value)) {
      if (!ParseCount(value, &count)) return Usage(argv[0]);
      cli.queue = static_cast<std::size_t>(count);
    } else if (MatchFlag(argv[i], "--batch", &value)) {
      if (!ParseCount(value, &cli.batch)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--clients", &value)) {
      if (!ParseCount(value, &cli.clients)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--requests", &value)) {
      if (!ParseUint(value, &cli.requests) || cli.requests == 0) {
        return Usage(argv[0]);
      }
    } else if (MatchFlag(argv[i], "--keys", &value)) {
      if (!ParseUint(value, &cli.keys) || cli.keys == 0) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--table-slots", &value)) {
      if (!ParseUint(value, &n) || n == 0 || n > UINT32_MAX) {
        return Usage(argv[0]);
      }
      cli.table_slots = static_cast<std::uint32_t>(n);
    } else if (MatchFlag(argv[i], "--zipf", &value)) {
      if (!ParseDouble(value, &cli.zipf) || cli.zipf < 0) {
        return Usage(argv[0]);
      }
    } else if (MatchFlag(argv[i], "--get-every", &value)) {
      if (!ParseUint(value, &cli.get_every)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--multiput-every", &value)) {
      if (!ParseUint(value, &cli.multiput_every)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--qps", &value)) {
      if (!ParseUint(value, &cli.qps)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--seed", &value)) {
      if (!ParseUint(value, &cli.seed)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--json-out", &value)) {
      cli.json_out = value;
    } else if (MatchFlag(argv[i], "--hist-out", &value)) {
      cli.hist_out = value;
    } else if (MatchFlag(argv[i], "--metrics-out", &value)) {
      cli.metrics_out = value;
    } else if (MatchFlag(argv[i], "--slo", &value)) {
      auto spec = obs::LoadSloSpecFile(value);
      if (!spec.ok()) {
        std::fprintf(stderr, "slo: %s\n", spec.status().ToString().c_str());
        return 2;
      }
      cli.slo = *spec;
    } else if (MatchFlag(argv[i], "--flight-dump", &value)) {
      cli.flight_dump = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!cli.flight_dump.empty() && !cli.slo) {
    std::fprintf(stderr,
                 "--flight-dump needs --slo: only an armed SLO watchdog "
                 "writes a dump\n");
    return Usage(argv[0]);
  }
  if (cli.multiput_every > 0 && cli.keys < kMultiPutPairs) {
    std::fprintf(stderr, "--multiput-every needs --keys >= %" PRIu64 "\n",
                 kMultiPutPairs);
    return Usage(argv[0]);
  }

  MetricsRegistry metrics;
  std::vector<LoopResult> results;
  for (const Mode mode : cli.modes) {
    results.push_back(RunLoop(cli, mode, &metrics));
  }

  bool healthy = true;
  for (const LoopResult& r : results) {
    PrintLoop(r);
    healthy = Healthy(r, cli) && healthy;
  }

  if (!cli.json_out.empty()) {
    std::string json = "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      AppendJson(&json, results[i]);
      json += i + 1 < results.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    healthy = WriteOutput(cli.json_out, json) && healthy;
  }
  if (!cli.hist_out.empty()) {
    std::string hist;
    for (const LoopResult& r : results) {
      AppendHist(&hist, r);
    }
    healthy = WriteOutput(cli.hist_out, hist) && healthy;
  }
  if (!cli.metrics_out.empty()) {
    healthy = WriteOutput(cli.metrics_out, metrics.ToPrometheus()) && healthy;
  }
  return healthy ? 0 : 1;
}

}  // namespace
}  // namespace serve
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::serve::Run(argc, argv); }
