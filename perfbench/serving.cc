// kv-closed and repl-txn: the serving tier under closed-loop load.
//
//   kv-closed  threaded KvService, 2 shards x 1 worker, 2 closed-loop
//              clients, zipf 0.99 over a preloaded 4096-key space, 2 puts :
//              1 get, every 16th request a 4-key cross-shard MultiPut.
//   repl-txn   threaded ReplicatedKvService, 2 groups x 2 replicas, one-sided
//              redo, 2 closed-loop clients, uniform keys, the same mix, every
//              10th request a 4-key MultiPut (every put is a replicated
//              transaction over the fabric).
//
// One worker per shard: with more, the threaded PPO audit fails
// intermittently (an open correctness bug of the audit), and a benchmark
// setting must not hide or trip over it. Clients + workers = 4 threads.
//
// Correctness: every client owns a disjoint key slice (key % clients ==
// client), so the last acknowledged version of each key is known. Every Get
// is checked against it, every key is read back after the run, and the PPO
// audit must report no violation.
//
// After the live run the same request stream (the clients' first requests,
// one outstanding request per client, as in the closed loop) is replayed
// through Pump() on fresh services in NearPM-MD and CPU-baseline mode: the
// MD replay times pure execution (no hand-off), and the pair gives the
// simulated NDP speedup of this request stream.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "src/repl/service.h"
#include "src/serve/service.h"
#include "src/trace/ppo_checker.h"

namespace perfbench {
namespace {

using nearpm::ExecMode;
using nearpm::StatusOr;
using nearpm::serve::RequestKind;
using nearpm::serve::ServeRequest;
using nearpm::serve::ServeResult;
using nearpm::serve::Shard;

struct Traffic {
  std::uint64_t keys = 4096;
  double zipf = 0;  // 0 = uniform
  std::uint64_t multiput_every = 16;
  std::uint64_t get_every = 3;
  int clients = 2;
  // Replay lengths in rounds (one request per client per round). The
  // simulated p99 needs the long one: its tail has discrete modes that a
  // short replay samples unevenly from seed to seed. The speedup converges
  // on the short prefix, which is all the CPU-baseline replay runs.
  std::uint64_t replay_rounds = 32768;
  std::uint64_t speedup_rounds = 8192;
};
constexpr int kTxnKeys = 4;
constexpr std::size_t kValueBytes = 16;  // key, version

// ---- Request stream -------------------------------------------------------------

// Draws ranks in [0, n): uniform, or zipf(theta) by exact inverse CDF.
class RankDraw {
 public:
  RankDraw(std::uint64_t n, double theta, std::uint64_t seed)
      : n_(n), rng_(seed) {
    if (theta > 0) {
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
  }

  std::uint64_t Next() {
    if (cdf_.empty()) {
      return rng_.NextBounded(n_);
    }
    const double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf_.begin()),
                                   n_ - 1);
  }

 private:
  std::uint64_t n_;
  nearpm::Rng rng_;
  std::vector<double> cdf_;
};

// One generated request, kept so a rejected submission can be rebuilt.
struct Draft {
  RequestKind kind = RequestKind::kPut;
  int nkeys = 1;
  std::uint64_t keys[kTxnKeys] = {};
  std::uint64_t version = 0;
};

std::vector<std::uint8_t> EncodeValue(std::uint64_t key, std::uint64_t version) {
  std::vector<std::uint8_t> value(kValueBytes);
  std::memcpy(value.data(), &key, 8);
  std::memcpy(value.data() + 8, &version, 8);
  return value;
}

// True when `value` is exactly what EncodeValue(key, version) stored (the
// store pads values with zeros).
bool ValueIs(const std::vector<std::uint8_t>& value, std::uint64_t key,
             std::uint64_t version) {
  if (value.size() < kValueBytes) {
    return false;
  }
  std::uint64_t k = 0;
  std::uint64_t v = 0;
  std::memcpy(&k, value.data(), 8);
  std::memcpy(&v, value.data() + 8, 8);
  for (std::size_t i = kValueBytes; i < value.size(); ++i) {
    if (value[i] != 0) {
      return false;
    }
  }
  return k == key && v == version;
}

// One closed-loop client's request stream over its key slice, and the last
// acknowledged version of every key in it.
class ClientStream {
 public:
  ClientStream(const Traffic& traffic, std::uint64_t seed, int client)
      : traffic_(traffic),
        client_(static_cast<std::uint64_t>(client)),
        slice_(traffic.keys / static_cast<std::uint64_t>(traffic.clients)),
        draw_(slice_, traffic.zipf,
              seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(client)),
        acked_(slice_, 0) {}

  Draft Next() {
    Draft d;
    d.version = ++issued_;
    const std::uint64_t i = issued_ - 1;
    if (i % traffic_.multiput_every == traffic_.multiput_every - 1) {
      d.kind = RequestKind::kMultiPut;
      d.nkeys = 0;
      while (d.nkeys < kTxnKeys) {
        const std::uint64_t key = KeyOf(draw_.Next());
        if (std::find(d.keys, d.keys + d.nkeys, key) == d.keys + d.nkeys) {
          d.keys[d.nkeys++] = key;
        }
      }
    } else {
      d.kind = i % traffic_.get_every == traffic_.get_every - 1
                   ? RequestKind::kGet
                   : RequestKind::kPut;
      d.keys[0] = KeyOf(draw_.Next());
    }
    return d;
  }

  static ServeRequest Build(const Draft& d) {
    ServeRequest req;
    req.kind = d.kind;
    if (d.kind == RequestKind::kMultiPut) {
      for (int k = 0; k < d.nkeys; ++k) {
        req.pairs.push_back({d.keys[k], EncodeValue(d.keys[k], d.version)});
      }
    } else {
      req.key = d.keys[0];
      if (d.kind == RequestKind::kPut) {
        req.value = EncodeValue(d.keys[0], d.version);
      }
    }
    return req;
  }

  // Checks a completion and records acknowledged writes. False = failure.
  bool Complete(const Draft& d, const ServeResult& result) {
    if (!result.status.ok()) {
      return false;
    }
    if (d.kind == RequestKind::kGet) {
      return ValueIs(result.value, d.keys[0], Expected(d.keys[0]));
    }
    for (int k = 0; k < d.nkeys; ++k) {
      acked_[(d.keys[k] - client_) / Clients()] = d.version;
    }
    return true;
  }

  bool Owns(std::uint64_t key) const {
    return key % Clients() == client_ && key / Clients() < slice_;
  }
  std::uint64_t Expected(std::uint64_t key) const {
    return acked_[(key - client_) / Clients()];
  }
  std::uint64_t KeyOf(std::uint64_t rank) const {
    return rank * Clients() + client_;
  }

 private:
  std::uint64_t Clients() const {
    return static_cast<std::uint64_t>(traffic_.clients);
  }

  Traffic traffic_;
  std::uint64_t client_;
  std::uint64_t slice_;
  RankDraw draw_;
  std::vector<std::uint64_t> acked_;  // version 0 = the preloaded value
  std::uint64_t issued_ = 0;
};

// ---- The two services behind one interface -----------------------------------

struct Counters {
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  nearpm::SimTime makespan_ns = 0;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t flight_events = 0;
  double cc_ns = 0;         // crash-consistency region time, all nodes
  double node_time_ns = 0;  // every node's latest clock, summed
};

struct KvBackend {
  using Service = nearpm::serve::KvService;
  static constexpr Layer kLayer = Layer::kServe;
  static constexpr const char* kPrefix = "serve";
  static constexpr bool kHasFabric = false;

  static StatusOr<std::unique_ptr<Service>> Create(ExecMode mode) {
    nearpm::serve::ServeOptions so;
    so.shards = 2;
    so.workers_per_shard = 1;
    so.table_slots = 4096;
    so.mode = mode;
    return Service::Create(so);
  }
  static int Nodes(Service& s) { return s.num_shards(); }
  static Shard& Node(Service& s, int n) { return s.shard(n); }

  static void ReadStats(Service& s, Counters* c) {
    const nearpm::serve::ServeStats st = s.Stats();
    c->completed = st.completed;
    c->batches = st.batches;
    c->makespan_ns = st.makespan_ns;
  }
  // Every ServeResult carries the request's simulated latency.
  static constexpr bool kWritesCarryLatency = true;
  static nearpm::SimTime CoordinatorClock(Service&, const Draft&) { return 0; }
  static StatusOr<std::vector<std::uint8_t>> ReadBack(Service& s,
                                                      std::uint64_t key) {
    Shard& shard = s.shard(s.router().ShardFor(key));
    std::lock_guard lock(shard.mu());
    return shard.Get(shard.WorkerTid(0), key);
  }
};

struct ReplBackend {
  using Service = nearpm::repl::ReplicatedKvService;
  static constexpr Layer kLayer = Layer::kRepl;
  static constexpr const char* kPrefix = "repl";
  static constexpr bool kHasFabric = true;

  static StatusOr<std::unique_ptr<Service>> Create(ExecMode mode) {
    nearpm::repl::ReplOptions ro;
    ro.groups = 2;
    ro.replicas = 2;
    ro.protocol = nearpm::repl::ReplProtocol::kOneSidedRedo;
    ro.workers_per_shard = 1;
    ro.table_slots = 4096;
    ro.mode = mode;
    return Service::Create(ro);
  }
  static int Nodes(Service& s) { return s.num_nodes(); }
  static Shard& Node(Service& s, int n) { return s.node(n); }

  static void ReadStats(Service& s, Counters* c) {
    const nearpm::repl::ReplStats st = s.Stats();
    c->completed = st.completed;
    c->batches = st.batches;
    c->makespan_ns = st.makespan_ns;
  }
  static void ReadNet(Service& s, Counters* c) {
    nearpm::net::Fabric& fabric = s.fabric();
    c->net_msgs = fabric.total_messages();
    for (int k = 0; k < static_cast<int>(nearpm::net::MsgKind::kCount); ++k) {
      c->net_bytes += fabric.BytesSent(static_cast<nearpm::net::MsgKind>(k));
    }
  }
  // Replicated writes leave ServeResult::latency_ns at 0; their latency is
  // the coordinator primary's transaction clock from intent to retire (what
  // the service's own commit histogram records), read around a Pump() that
  // executes only that request.
  static constexpr bool kWritesCarryLatency = false;
  static nearpm::SimTime CoordinatorClock(Service& s, const Draft& d) {
    const std::vector<std::uint64_t> keys(d.keys, d.keys + d.nkeys);
    const int group = s.router().ParticipantsFor(keys).front();
    Shard& coord = s.node(s.router().PrimaryNodeFor(group));
    std::lock_guard lock(coord.mu());
    return coord.Now(coord.TxnTid());
  }
  static StatusOr<std::vector<std::uint8_t>> ReadBack(Service& s,
                                                      std::uint64_t key) {
    return s.Read(key);
  }
};

// Quiesced counters of a service (call before Start or after Stop).
template <class B>
Counters ReadCounters(typename B::Service& svc, SpanLog* spans) {
  Counters c;
  {
    ScopedSpan span(spans, B::kLayer, "Stats");
    B::ReadStats(svc, &c);
  }
  if constexpr (B::kHasFabric) {
    ScopedSpan span(spans, Layer::kNet, "Fabric counters");
    B::ReadNet(svc, &c);
  }
  {
    ScopedSpan span(spans, Layer::kTrace, "TraceRecorder::recorded");
    for (int n = 0; n < B::Nodes(svc); ++n) {
      Shard& node = B::Node(svc, n);
      std::lock_guard lock(node.mu());
      c.trace_recorded += node.recorder().recorded();
      c.trace_dropped += node.recorder().dropped();
      c.cc_ns += node.rt().stats().CcRegionNs();
      c.node_time_ns += static_cast<double>(node.MakespanNs());
    }
    if constexpr (B::kHasFabric) {
      c.trace_recorded += svc.fabric_recorder().recorded();
      c.trace_dropped += svc.fabric_recorder().dropped();
    }
  }
  ScopedSpan span(spans, Layer::kObs, "FlightRecorder::accepted");
  if (svc.flight() != nullptr) {
    c.flight_events = svc.flight()->accepted();
  }
  return c;
}

// Creates a service and preloads every key with version 0 through Pump().
template <class B>
StatusOr<std::unique_ptr<typename B::Service>> MakeLoaded(
    const Traffic& traffic, ExecMode mode, SpanLog* spans) {
  auto made = [&] {
    ScopedSpan span(spans, B::kLayer, "Create");
    return B::Create(mode);
  }();
  if (!made.ok()) {
    return made.status();
  }
  typename B::Service& svc = **made;
  constexpr std::uint64_t kChunk = 32;  // under the 64-slot queue per shard
  for (std::uint64_t base = 0; base < traffic.keys; base += kChunk) {
    std::vector<std::future<ServeResult>> pending;
    for (std::uint64_t key = base; key < std::min(base + kChunk, traffic.keys);
         ++key) {
      ServeRequest req;
      req.kind = RequestKind::kPut;
      req.key = key;
      req.value = EncodeValue(key, 0);
      auto submitted = [&] {
        ScopedSpan span(spans, B::kLayer, "Submit");
        return svc.Submit(std::move(req));
      }();
      if (!submitted.ok()) {
        return submitted.status();
      }
      pending.push_back(std::move(*submitted));
    }
    {
      ScopedSpan span(spans, B::kLayer, "Pump");
      svc.Pump();
    }
    for (auto& f : pending) {
      const ServeResult r = f.get();
      if (!r.status.ok()) {
        return r.status;
      }
    }
  }
  return made;
}

// ---- Live closed-loop run -------------------------------------------------------

struct ClientLog {
  std::vector<std::uint64_t> wall_ns;
  std::vector<std::int64_t> done_ns;  // completion instants
  std::vector<std::uint64_t> admit_ns;
  std::vector<std::uint64_t> wait_ns;
  std::vector<std::uint64_t> txn_wait_ns;
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t failed = 0;
  std::int64_t last_done = 0;
  std::string first_error;
};

// Runs the clients against a started service for `duration_ns`.
template <class B>
void RunClosedLoop(typename B::Service& svc, const Traffic& traffic,
                   std::int64_t duration_ns, std::vector<ClientStream>& streams,
                   const std::vector<SpanLog*>& client_spans,
                   std::vector<ClientLog>& logs, std::int64_t* start_ns) {
  const bool traced = client_spans.front() != nullptr;
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> deadline{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < traffic.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStream& stream = streams[c];
      ClientLog& log = logs[c];
      SpanLog* spans = client_spans[c];
      const std::size_t expect =
          static_cast<std::size_t>(duration_ns / 15000);  // ~65k/s
      log.wall_ns.reserve(expect);
      log.done_ns.reserve(expect);
      if (traced) {
        log.admit_ns.reserve(expect);
        log.wait_ns.reserve(expect);
      }
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const std::int64_t end = deadline.load(std::memory_order_relaxed);
      std::int64_t now = NowNs();
      while (now < end) {
        const Draft d = stream.Next();
        const std::int64_t t0 = now;
        std::int64_t t_admitted = 0;
        ServeResult result;
        bool submitted_ok = true;
        {
          ScopedSpan request(
              spans, Layer::kBench, "request",
              (static_cast<std::uint64_t>(c + 1) << 40) | d.version);
          std::future<ServeResult> done;
          {
            ScopedSpan admit(spans, B::kLayer, "Submit");
            while (true) {
              auto submitted = svc.Submit(ClientStream::Build(d));
              if (submitted.ok()) {
                done = std::move(*submitted);
                break;
              }
              if (submitted.status().code() !=
                  nearpm::StatusCode::kResourceExhausted) {
                result.status = submitted.status();
                submitted_ok = false;
                break;
              }
              ++log.retries;
              std::this_thread::yield();
            }
          }
          if (traced) {
            t_admitted = NowNs();
          }
          if (submitted_ok) {
            ScopedSpan wait(spans, B::kLayer, "future.get");
            result = done.get();
          }
        }
        now = NowNs();
        ++log.requests;
        log.wall_ns.push_back(static_cast<std::uint64_t>(now - t0));
        log.done_ns.push_back(now);
        if (traced) {
          log.admit_ns.push_back(static_cast<std::uint64_t>(t_admitted - t0));
          log.wait_ns.push_back(static_cast<std::uint64_t>(now - t_admitted));
          if (d.kind == RequestKind::kMultiPut) {
            log.txn_wait_ns.push_back(
                static_cast<std::uint64_t>(now - t_admitted));
          }
        }
        if (!stream.Complete(d, result)) {
          ++log.failed;
          if (log.first_error.empty()) {
            log.first_error = "request " + std::to_string(d.version) +
                              " of client " + std::to_string(c) + ": " +
                              (result.status.ok() ? "stale or wrong value"
                                                  : result.status.ToString());
          }
        }
      }
      log.last_done = now;
    });
  }
  *start_ns = NowNs();
  deadline.store(*start_ns + duration_ns, std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
}

// ---- Replay through Pump() ------------------------------------------------------

struct ReplayResult {
  double exec_s = 0;  // wall time inside Pump()
  std::uint64_t requests = 0;
  double node_time_ns = 0;  // over the first speedup_rounds
  double cc_ns = 0;         // over the first speedup_rounds
  std::vector<std::uint64_t> sim_ns;  // per-request simulated latency
  std::uint64_t stream_digest = 0;    // of the replayed requests
};

// Replays the clients' streams one request at a time (each client's next
// request after its previous one completed, as in the closed loop).
template <class B>
ReplayResult Replay(const Traffic& traffic, std::uint64_t seed, ExecMode mode,
                    std::uint64_t rounds, SpanLog* spans, Report& report) {
  ReplayResult out;
  ScopedSpan replay_span(spans, Layer::kBench, "replay");
  auto made = MakeLoaded<B>(traffic, mode, spans);
  if (!made.ok()) {
    report.Fail(std::string("replay setup: ") + made.status().ToString());
    return out;
  }
  typename B::Service& svc = **made;
  const Counters before = ReadCounters<B>(svc, spans);
  std::vector<ClientStream> streams;
  for (int c = 0; c < traffic.clients; ++c) {
    streams.emplace_back(traffic, seed, c);
  }
  auto take_speedup_counters = [&] {
    const Counters at = ReadCounters<B>(svc, spans);
    out.node_time_ns = at.node_time_ns - before.node_time_ns;
    out.cc_ns = at.cc_ns - before.cc_ns;
  };
  out.sim_ns.reserve(rounds * static_cast<std::uint64_t>(traffic.clients));
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (round == traffic.speedup_rounds) {
      take_speedup_counters();
    }
    for (int c = 0; c < traffic.clients; ++c) {
      const Draft d = streams[c].Next();
      for (int k = 0; k < d.nkeys; ++k) {
        out.stream_digest = (out.stream_digest ^ d.keys[k]) * 1099511628211ull;
      }
      out.stream_digest =
          (out.stream_digest ^ static_cast<std::uint64_t>(d.kind)) *
          1099511628211ull;
      auto submitted = [&] {
        ScopedSpan span(spans, B::kLayer, "Submit");
        return svc.Submit(ClientStream::Build(d));
      }();
      if (!submitted.ok()) {
        report.Fail("replay submit: " + submitted.status().ToString());
        return out;
      }
      const bool clocked =
          !B::kWritesCarryLatency && d.kind != RequestKind::kGet;
      const nearpm::SimTime clock0 = clocked ? B::CoordinatorClock(svc, d) : 0;
      const std::int64_t t = NowNs();
      {
        ScopedSpan span(spans, B::kLayer, "Pump");
        svc.Pump();
      }
      out.exec_s += SecondsSince(t);
      const ServeResult r = submitted->get();
      out.sim_ns.push_back(clocked ? B::CoordinatorClock(svc, d) - clock0
                                   : r.latency_ns);
      const bool ok = streams[c].Complete(d, r);
      report.Check(ok);
      if (!ok) {
        report.Fail("replay request " + std::to_string(d.version) + ": " +
                    (r.status.ok() ? "stale or wrong value"
                                   : r.status.ToString()));
        return out;
      }
      ++out.requests;
    }
  }
  if (rounds == traffic.speedup_rounds) {
    take_speedup_counters();
  }
  return out;
}

// ---- One pass -------------------------------------------------------------------

// The load runs in kSegments segments, each on a freshly set-up service
// with fresh client threads, and each segment's load is cut into
// kWindowsPerSegment windows. Host wall-clock speed on a shared machine
// drifts by tens of percent within seconds, so setup_s, sim_ops_per_s and
// audit_s are medians over the segments, and ops_per_s and the wall
// quantiles are medians over all windows.
constexpr int kSegments = 3;
constexpr int kWindowsPerSegment = 5;

struct Window {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct Segment {
  double setup_s = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double sim_ops_per_s = 0;
  double audit_s = 0;
  double snapshot_s = 0;  // traced pass: the audit split in its two calls
  double check_s = 0;
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t wall_samples = 0;
  std::vector<Window> windows;
  Counters run;  // counter deltas over the load
};

Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
  d.completed = after.completed - before.completed;
  d.batches = after.batches - before.batches;
  d.makespan_ns = after.makespan_ns - before.makespan_ns;
  d.trace_recorded = after.trace_recorded - before.trace_recorded;
  d.trace_dropped = after.trace_dropped - before.trace_dropped;
  d.net_msgs = after.net_msgs - before.net_msgs;
  d.net_bytes = after.net_bytes - before.net_bytes;
  d.flight_events = after.flight_events - before.flight_events;
  d.cc_ns = after.cc_ns - before.cc_ns;
  d.node_time_ns = after.node_time_ns - before.node_time_ns;
  return d;
}

void Append(std::vector<std::uint64_t>& to,
            const std::vector<std::uint64_t>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Set-up, closed-loop load, read-back and PPO audit on one fresh service.
// Traced-pass samples are appended to the three vectors.
template <class B>
Segment RunSegment(const Traffic& traffic, std::uint64_t seed,
                   std::int64_t duration_ns, SpanLog* spans,
                   const std::vector<SpanLog*>& client_spans, Report& report,
                   std::vector<std::uint64_t>& admit_ns,
                   std::vector<std::uint64_t>& wait_ns,
                   std::vector<std::uint64_t>& txn_wait_ns) {
  Segment seg;
  ScopedSpan segment_span(spans, Layer::kBench, "segment");
  // Set-up: create, preload, start the workers.
  std::int64_t t = NowNs();
  auto made = MakeLoaded<B>(traffic, ExecMode::kNdpMultiDelayed, spans);
  if (!made.ok()) {
    report.Fail("setup: " + made.status().ToString());
    return seg;
  }
  typename B::Service& svc = **made;
  seg.setup_s = SecondsSince(t);
  const Counters before = ReadCounters<B>(svc, spans);  // no workers yet
  t = NowNs();
  {
    ScopedSpan start(spans, B::kLayer, "Start");
    svc.Start();
  }
  seg.setup_s += SecondsSince(t);

  std::vector<ClientStream> streams;
  for (int c = 0; c < traffic.clients; ++c) {
    streams.emplace_back(traffic, seed, c);
  }
  std::vector<ClientLog> logs(traffic.clients);
  std::int64_t start_ns = 0;
  RunClosedLoop<B>(svc, traffic, duration_ns, streams, client_spans, logs,
                   &start_ns);
  {
    ScopedSpan span(spans, B::kLayer, "Stop");
    svc.Stop();
  }
  seg.run = Delta(ReadCounters<B>(svc, spans), before);

  std::int64_t last_done = start_ns;
  std::vector<std::uint64_t> wall_ns;
  const std::int64_t window_ns = duration_ns / kWindowsPerSegment;
  std::vector<std::vector<std::uint64_t>> window_wall_ns(kWindowsPerSegment);
  for (ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.wall_ns.size(); ++i) {
      const std::int64_t w = std::clamp<std::int64_t>(
          (log.done_ns[i] - start_ns) / window_ns, 0, kWindowsPerSegment - 1);
      window_wall_ns[w].push_back(log.wall_ns[i]);
    }
    seg.requests += log.requests;
    seg.retries += log.retries;
    last_done = std::max(last_done, log.last_done);
    report.Count(log.requests, log.failed);
    if (!log.first_error.empty()) {
      report.Fail(log.first_error);
    }
    Append(wall_ns, log.wall_ns);
    Append(admit_ns, log.admit_ns);
    Append(wait_ns, log.wait_ns);
    Append(txn_wait_ns, log.txn_wait_ns);
  }
  seg.wall_samples = wall_ns.size();
  seg.ops_per_s = Ratio(static_cast<double>(seg.requests),
                        static_cast<double>(last_done - start_ns) * 1e-9);
  seg.p50_us = Quantile(wall_ns, 0.50) * 1e-3;
  seg.p99_us = Quantile(std::move(wall_ns), 0.99) * 1e-3;
  for (std::vector<std::uint64_t>& samples : window_wall_ns) {
    Window w;
    w.ops_per_s = static_cast<double>(samples.size()) /
                  (static_cast<double>(window_ns) * 1e-9);
    w.p50_us = Quantile(samples, 0.50) * 1e-3;
    w.p99_us = Quantile(std::move(samples), 0.99) * 1e-3;
    seg.windows.push_back(w);
  }
  seg.sim_ops_per_s =
      Ratio(static_cast<double>(seg.run.completed),
            static_cast<double>(seg.run.makespan_ns) * 1e-9);

  // Read every key back against the last acknowledged version.
  {
    ScopedSpan span(spans, Layer::kBench, "read_back");
    std::uint64_t mismatches = 0;
    for (std::uint64_t key = 0; key < traffic.keys; ++key) {
      const ClientStream& owner =
          streams[key % static_cast<std::uint64_t>(traffic.clients)];
      if (!owner.Owns(key)) {
        continue;  // beyond the last full slice: never written
      }
      const auto value = [&] {
        ScopedSpan read(spans, B::kLayer, "read");
        return B::ReadBack(svc, key);
      }();
      const bool ok = value.ok() && ValueIs(*value, key, owner.Expected(key));
      report.Check(ok);
      mismatches += ok ? 0 : 1;
    }
    if (mismatches > 0) {
      report.Fail(std::to_string(mismatches) + " keys read back wrong");
    }
  }

  // PPO audit over every node's trace. The traced pass makes the same two
  // calls PpoViolations() makes, one span each.
  std::uint64_t violations = 0;
  const std::int64_t audit_start = NowNs();
  if (spans == nullptr) {
    violations = svc.PpoViolations();
  } else {
    ScopedSpan audit(spans, Layer::kBench, "audit");
    for (int n = 0; n < B::Nodes(svc); ++n) {
      Shard& node = B::Node(svc, n);
      std::lock_guard lock(node.mu());
      t = NowNs();
      std::vector<nearpm::TraceEvent> events;
      {
        ScopedSpan span(spans, Layer::kTrace, "TraceRecorder::Snapshot");
        events = node.recorder().Snapshot();
      }
      seg.snapshot_s += SecondsSince(t);
      t = NowNs();
      {
        ScopedSpan span(spans, Layer::kTrace, "PpoChecker::Check");
        violations += nearpm::PpoChecker{}.Check(events).size();
      }
      seg.check_s += SecondsSince(t);
    }
  }
  seg.audit_s = SecondsSince(audit_start);
  if (violations > 0) {
    report.Fail(std::to_string(violations) + " PPO violations");
  }
  return seg;
}

template <class B>
Report RunServing(const Traffic& traffic, const PassArgs& args) {
  Report report;
  SpanLog* spans = args.spans != nullptr ? args.spans->NewLog() : nullptr;
  std::vector<SpanLog*> client_spans(traffic.clients, nullptr);
  if (args.spans != nullptr) {
    for (SpanLog*& log : client_spans) {
      log = args.spans->NewLog();
    }
  }
  const std::string prefix = B::kPrefix;
  const std::int64_t duration_ns =
      static_cast<std::int64_t>(args.seconds) * 1000000000 / kSegments;

  std::vector<Segment> segs;
  std::vector<std::uint64_t> admit_ns, wait_ns, txn_wait_ns;
  for (int k = 0; k < kSegments; ++k) {
    segs.push_back(RunSegment<B>(traffic, args.seed * kSegments + k,
                                 duration_ns, spans, client_spans, report,
                                 admit_ns, wait_ns, txn_wait_ns));
    // The segment's service was built by threads that are gone; hand their
    // freed arenas back so the next segment's peak RSS starts from the same
    // footprint instead of stacking on retained free memory.
    malloc_trim(0);
  }
  auto median_of = [&](double Segment::*field) {
    std::vector<double> v;
    for (const Segment& s : segs) {
      v.push_back(s.*field);
    }
    return Median(v);
  };

  // Pump() replays of segment 0's stream: pure execution time, the
  // simulated latency, and the simulated NDP speedup.
  const ReplayResult md =
      Replay<B>(traffic, args.seed * kSegments, ExecMode::kNdpMultiDelayed,
                traffic.replay_rounds, spans, report);
  const ReplayResult base =
      Replay<B>(traffic, args.seed * kSegments, ExecMode::kCpuBaseline,
                traffic.speedup_rounds, spans, report);

  report.Set("setup_s", median_of(&Segment::setup_s), "s");
  auto window_median = [&](double Window::*field) {
    std::vector<double> v;
    for (const Segment& s : segs) {
      for (const Window& w : s.windows) {
        v.push_back(w.*field);
      }
    }
    return Median(v);
  };
  report.Set("ops_per_s", window_median(&Window::ops_per_s), "1/s");
  report.Set("p50_us", window_median(&Window::p50_us), "us");
  report.Set("p99_us", window_median(&Window::p99_us), "us");
  report.Set("sim_ops_per_s", median_of(&Segment::sim_ops_per_s), "1/s");
  report.Set("sim_p99_ns", Quantile(md.sim_ns, 0.99), "ns");
  report.Set("audit_s", median_of(&Segment::audit_s), "s");
  // Simulated time summed over nodes, not the slowest node's: with zipf
  // keys the busiest shard changes from seed to seed.
  report.Set("sim_speedup_e2e", Ratio(base.node_time_ns, md.node_time_ns),
             "x");
  report.Set("sim_speedup_cc", Ratio(base.cc_ns, md.cc_ns), "x");
  for (std::size_t k = 0; k < segs.size(); ++k) {
    const Segment& s = segs[k];
    std::printf("%s segment %zu: setup %.4f s, %" PRIu64 " requests (%" PRIu64
                " retries), %.0f ops/s, wall p50 %.3f us p99 %.3f us over "
                "n=%" PRIu64 ", audit %.3f s\n",
                prefix.c_str(), k, s.setup_s, s.requests, s.retries,
                s.ops_per_s, s.p50_us, s.p99_us, s.wall_samples, s.audit_s);
  }
  std::printf("%s: Pump() replay of %" PRIu64 " requests per mode; simulated "
              "p99 over its n=%zu NearPM-MD requests; request-stream digest "
              "%016" PRIx64 "\n",
              prefix.c_str(), md.requests, md.sim_ns.size(), md.stream_digest);
  if (spans == nullptr) {
    return report;
  }

  Counters run;
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  double snapshot_s = 0;
  double check_s = 0;
  for (const Segment& s : segs) {
    run.completed += s.run.completed;
    run.batches += s.run.batches;
    run.trace_recorded += s.run.trace_recorded;
    run.trace_dropped += s.run.trace_dropped;
    run.net_msgs += s.run.net_msgs;
    run.net_bytes += s.run.net_bytes;
    run.flight_events += s.run.flight_events;
    requests += s.requests;
    retries += s.retries;
    snapshot_s += s.snapshot_s;
    check_s += s.check_s;
  }
  const double completed = static_cast<double>(run.completed);
  const double exec_ns =
      Ratio(md.exec_s * 1e9, static_cast<double>(md.requests));
  const double wait_p50 = Quantile(wait_ns, 0.50);
  report.Set(prefix + ".admit_ns.p50", Quantile(admit_ns, 0.50), "ns");
  report.Set(prefix + ".admit_ns.p99", Quantile(admit_ns, 0.99), "ns");
  report.Set(prefix + ".retries_per_req",
             Ratio(static_cast<double>(retries), static_cast<double>(requests)),
             "count");
  report.Set(prefix + ".wait_ns.p50", wait_p50, "ns");
  report.Set(prefix + ".wait_ns.p99", Quantile(wait_ns, 0.99), "ns");
  report.Set(prefix + ".txn_wait_ns.p99", Quantile(txn_wait_ns, 0.99), "ns");
  report.Set(prefix + ".exec_ns_per_req", exec_ns, "ns");
  report.Set(prefix + ".handoff_ns.p50", wait_p50 - exec_ns, "ns");
  report.Set(prefix + ".batch_mean",
             Ratio(completed, static_cast<double>(run.batches)), "count");
  report.Set("net.msgs_per_req",
             Ratio(static_cast<double>(run.net_msgs), completed), "count");
  report.Set("net.bytes_per_req",
             Ratio(static_cast<double>(run.net_bytes), completed), "B");
  report.Set("trace.events_per_req",
             Ratio(static_cast<double>(run.trace_recorded), completed),
             "count");
  report.Set("trace.dropped_frac",
             Ratio(static_cast<double>(run.trace_dropped),
                   static_cast<double>(run.trace_recorded)),
             "frac");
  report.Set("obs.flight_events_per_req",
             Ratio(static_cast<double>(run.flight_events), completed),
             "count");
  report.Set("trace.snapshot_s", snapshot_s / kSegments, "s");
  report.Set("trace.ppo_check_s", check_s / kSegments, "s");
  std::printf("%s: admit/wait quantiles over n=%zu, multi-put wait p99 over "
              "n=%zu\n",
              prefix.c_str(), wait_ns.size(), txn_wait_ns.size());
  return report;
}

}  // namespace

Report RunKvClosed(const PassArgs& args) {
  Traffic traffic;
  traffic.zipf = 0.99;
  traffic.multiput_every = 16;
  return RunServing<KvBackend>(traffic, args);
}

Report RunReplTxn(const PassArgs& args) {
  Traffic traffic;
  traffic.zipf = 0;
  traffic.multiput_every = 10;
  return RunServing<ReplBackend>(traffic, args);
}

}  // namespace perfbench
