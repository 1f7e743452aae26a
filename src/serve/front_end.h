// FrontEnd: the serving front end both KV services share -- everything
// between Submit() and the completion future.
//
// A ShardRouter hash-partitions keys across G groups. Each group is R
// independent simulated machines ("nodes", src/serve/shard.h; node = group *
// R + replica) and owns one admission ring. KvService is the R = 1 case (a
// group is a shard, committing cross-shard MultiPuts locally);
// ReplicatedKvService stretches every group across replicas and commits
// over the simulated fabric. Both subclass this core and supply only how a
// batch executes (ExecuteBatch) and how their machines crash, fail over and
// recover. Admission, the rings, the workers, Pump, the per-worker metric
// blocks, the sliding windows, the flight recorder, the SLO watchdog, the
// stats merge, the PPO audit, the timeline sources and the intent-redo loop
// exist once, here.
//
// Hot path: requests are admitted into per-group lock-free MPSC rings
// (src/serve/mpsc_ring.h; a full ring rejects with ResourceExhausted --
// caller-visible backpressure, never unbounded buffering) and drained in
// batches. Completions are recorded into per-(group, worker) metric blocks
// and sliding windows, so the request path performs no mutex acquisition
// and no registry lookup: admission is a claim-CAS plus a release store,
// and each completion bumps cache-line-private relaxed atomics. The
// MetricsRegistry is populated only at scrape time (PublishMetrics /
// ExportResourceMetrics). The shared core costs a batch one virtual call.
//
// Two execution modes share the ring/batch path:
//   * Start()/Stop(): real OS worker threads per group (the CLI smoke mode);
//   * Pump(): deterministic inline draining on the calling thread (the
//     benchmark and crash-fuzzer mode -- same code path, reproducible
//     simulated timings).
#ifndef SRC_SERVE_FRONT_END_H_
#define SRC_SERVE_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/obs/watchdog.h"
#include "src/prof/request_timeline.h"
#include "src/serve/mpsc_ring.h"
#include "src/serve/router.h"
#include "src/serve/shard.h"
#include "src/trace/metrics.h"

namespace nearpm {
namespace serve {

// Front-end CPU cost of parsing one request (ns), in every service.
inline constexpr double kRequestParseNs = 50.0;

// Options every serving configuration shares; ServeOptions and ReplOptions
// extend it with their topology and commit-protocol knobs.
struct FrontEndOptions {
  int workers_per_shard = 2;
  std::size_t queue_capacity = 64;
  int batch_max = 8;  // requests drained per doorbell/fence
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  bool enforce_ppo = true;
  bool skip_recovery_replay = false;  // fault injection (fuzzer teeth)
  // Fault injection for the fuzzers' self-tests: recovery (and failover)
  // scrubs surviving intents without re-applying them, breaking the
  // all-or-nothing guarantee and replica convergence. The fuzzers must
  // catch this.
  bool break_intent_redo = false;
  std::uint64_t pm_size = 16ull << 20;
  std::uint32_t table_slots = 512;
  std::uint32_t value_size = 64;
  // Device geometry shared by every node (and the fabric links, when there
  // is one). Default = seed platform.
  hwmodel::HwConfig hw;
  // SLO watchdog: when set, `slo` is evaluated at batch boundaries over the
  // per-worker sliding windows, and a breach dumps the flight record to
  // `slo_dump_path` (empty = in-memory alert only). The windows take their
  // shape (window_ns, slow_k) from `slo`, or from SloSpec{} when it is
  // unset.
  std::optional<obs::SloSpec> slo;
  std::string slo_dump_path;
};

enum class RequestKind : std::uint8_t { kGet, kPut, kMultiPut };

struct ServeRequest {
  RequestKind kind = RequestKind::kPut;
  std::uint64_t key = 0;
  std::vector<std::uint8_t> value;  // kPut payload
  std::vector<KvPair> pairs;        // kMultiPut payload
};

struct ServeResult {
  Status status = Status::Ok();
  std::vector<std::uint8_t> value;  // kGet payload
  // The request's simulated latency: from batch pickup to completion for a
  // batch-local request (queueing behind batch peers included), the
  // coordinator's transaction clock for a commit.
  SimTime latency_ns = 0;
  int shard = -1;
  // Request trace id allocated at admission: the handle `nearpm_trace
  // --request` takes to reconstruct this request's cross-node timeline.
  std::uint64_t trace_id = 0;
};

// Hot-path metrics block, one per (group, worker): written only by its
// owning worker (relaxed atomics on a private cache line, so a concurrent
// stats merge reads torn-free values), merged on scrape. This is what
// keeps the MetricsRegistry -- shared_mutex plus string-keyed map lookup --
// entirely off the request path.
struct alignas(64) WorkerMetrics {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> batches{0};
  Histogram request_ns;  // batch pickup -> completion, simulated ns
  Histogram batch_size;
};

// Quiesced-state snapshot (call after Stop()/Pump(), not mid-traffic). Each
// service documents which requests its counters cover.
struct ServeStats {
  std::uint64_t completed = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t txns = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  SimTime makespan_ns = 0;  // slowest node's latest virtual clock
  std::uint64_t request_p50_ns = 0;
  std::uint64_t request_p99_ns = 0;
  double throughput_ops_per_sec = 0;  // completed / makespan
};

// Tags every participant recorder of a cross-node transaction with the
// originating request's trace id for the transaction's duration, and
// restores 0 on every exit path -- crash injections and error returns
// included. set_active_trace is recorder-shared state, so the caller holds
// every tagged node's lock for the scope's whole life.
class TxnTraceScopes {
 public:
  TxnTraceScopes(std::uint64_t trace_id, std::size_t recorders)
      : trace_id_(trace_id) {
    if (trace_id_ != 0) {
      recorders_.reserve(recorders);
    }
  }
  ~TxnTraceScopes() {
    for (TraceRecorder* r : recorders_) {
      r->set_active_trace(0);
    }
  }
  TxnTraceScopes(const TxnTraceScopes&) = delete;
  TxnTraceScopes& operator=(const TxnTraceScopes&) = delete;

  void Tag(TraceRecorder* recorder) {
    if (trace_id_ != 0) {
      recorder->set_active_trace(trace_id_);
      recorders_.push_back(recorder);
    }
  }

 private:
  std::uint64_t trace_id_;
  std::vector<TraceRecorder*> recorders_;
};

class FrontEnd {
 public:
  // Subclass destructors must Stop() first: the workers call back into
  // ExecuteBatch, which must not outlive the subclass.
  virtual ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  const ShardRouter& router() const { return router_; }
  Shard& node(int n) { return *nodes_[n]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  MetricsRegistry& metrics() { return metrics_; }

  // Admission: routes the request to its group's ring (a MultiPut to its
  // coordinator group), enqueues it and returns the completion future. A
  // full ring rejects immediately with ResourceExhausted; nothing was
  // enqueued and the caller may retry after draining.
  StatusOr<std::future<ServeResult>> Submit(ServeRequest request);

  // ---- Threaded mode --------------------------------------------------------
  void Start();  // spawns workers_per_shard OS threads per group
  void Stop();   // closes the rings, drains and joins every worker

  // ---- Deterministic mode ---------------------------------------------------
  // Drains every ring inline (round-robin across groups, rotating the
  // virtual worker clock per batch). Returns requests executed. Must not
  // run concurrently with Start().
  std::uint64_t Pump();

  // PPO audit over every node's trace. Returns the total violation count;
  // appends human-readable reports to `report` when non-null.
  std::uint64_t PpoViolations(std::string* report = nullptr);

  // Quiesced-state snapshot (call after Stop()/Pump(), not mid-traffic): one
  // merge pass over the worker blocks plus the admission counters, txns_,
  // makespan and throughput. Never touches the registry.
  ServeStats Stats() const;

  // Folds the per-worker blocks and service-level counters into metrics()
  // under the service's historical names (<prefix>completed,
  // <prefix>request_ns, ...), plus the sliding-window gauges, the watchdog
  // counters, the fabric's message counters and the backend's commit
  // metrics. Idempotent: totals are stored, not added, so scraping twice
  // does not double-count. Call quiesced.
  void PublishMetrics();

  // PublishMetrics, then folds every node's trace (and the fabric's)
  // through the profiler and publishes resource gauges: unit/dispatcher
  // duty cycles and sampled queue/FIFO occupancy, labeled
  // <prefix>duty{<node label>="0",resource="..."}. Call quiesced.
  void ExportResourceMetrics();

  // ---- Live observability ---------------------------------------------------
  // The flight recorder: a view over every node recorder and the fabric's
  // (never null).
  obs::FlightRecorder* flight() { return &flight_; }
  // The SLO watchdog (null unless FrontEndOptions::slo is set).
  obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  // Merged sliding-window view across every (group, worker) window at sim
  // time `now` (pass Stats().makespan_ns for "end of run"). Safe mid-run.
  obs::WindowStats WindowSnapshot(SimTime now) const;
  // Labeled event-stream snapshots of every node recorder ("<label><N>")
  // plus the fabric's ("fabric"), the input BuildRequestTimeline wants:
  // everything each ring retains. Safe mid-run.
  std::vector<TimelineSource> TimelineSources() const;

 protected:
  struct QueuedRequest {
    ServeRequest request;
    std::promise<ServeResult> done;
    std::uint64_t trace_id = 0;  // allocated at admission
  };

  // Rejects shapes the constructor cannot size and an invalid SLO spec;
  // call before constructing.
  static Status Validate(const FrontEndOptions& options);
  // `metric_prefix` names the registry entries ("serve_"), `node_label` the
  // nodes in labels, reports and timeline sources ("shard").
  FrontEnd(const FrontEndOptions& options, int groups, int replicas,
           std::string metric_prefix, std::string node_label);
  // Builds every node, adds its recorder -- then `fabric`'s, when
  // non-null -- to the flight recorder, and arms the SLO watchdog when the
  // options carry a spec. Call once, right after construction.
  Status CreateNodes(TraceRecorder* fabric);

  // Executes one batch popped from `group`'s ring on worker clock `worker`,
  // fulfilling every request's future. The buffer is reused across batches.
  // Returns the latest simulated time the batch reached: the SLO watchdog's
  // evaluation point.
  virtual SimTime ExecuteBatch(int group, int worker,
                               std::vector<QueuedRequest>& batch) = 0;
  // Stores the backend's commit-path counters under its historical names
  // (PublishMetrics' last step).
  virtual void PublishCommitMetrics() = 0;

  WorkerMetrics& worker_metrics(int group, int worker) {
    return worker_metrics_[Block(group, worker)];
  }
  obs::SlidingWindow& window(int group, int worker) {
    return windows_[Block(group, worker)];
  }
  // Requests still queued on `group`'s ring (residual backlog at pickup).
  std::size_t Backlog(int group) const { return queues_[group]->size(); }

  // Completion: counts the request in its worker block, samples the sliding
  // window at sim time `end`, then fulfils the future.
  static void Complete(QueuedRequest& item, ServeResult&& result, SimTime end,
                       WorkerMetrics& wm, obs::SlidingWindow& win) {
    wm.completed.fetch_add(1, std::memory_order_relaxed);
    win.RecordLatency(end, result.latency_ns, !result.status.ok(),
                      item.trace_id);
    item.done.set_value(std::move(result));
  }

  // Fails every request still queued on `group` with Unavailable (a power
  // failure loses admitted-but-unexecuted work).
  void FailQueued(int group);
  // Quiesced paths (recovery, failover): every node lock, ascending.
  std::vector<std::unique_lock<std::mutex>> LockAllNodes();
  // Idempotent intent redo: every intent surviving on `node` is re-applied
  // pair by pair to each replica of the pair's owning group (a replica is
  // skipped when `alive` marks it dead; null = all alive), then retired on
  // `node`. Callers hold every node lock.
  Status RedoNodeIntents(int node, const std::vector<bool>* alive = nullptr);

  const FrontEndOptions front_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> nodes_;  // index = node id
  // Transactions, counted as each backend's Stats documents.
  std::atomic<std::uint64_t> txns_{0};
  std::atomic<std::uint64_t> intent_redos_{0};

 private:
  std::size_t Block(int group, int worker) const {
    return static_cast<std::size_t>(group) *
               static_cast<std::size_t>(front_.workers_per_shard) +
           static_cast<std::size_t>(worker);
  }
  void WorkerLoop(int group, int worker);
  // ExecuteBatch, then the watchdog's breach check at the batch's end time
  // (one branch when no watchdog is armed).
  void RunBatch(int group, int worker, std::vector<QueuedRequest>& batch);

  const std::string prefix_;
  const std::string node_label_;
  TraceRecorder* fabric_ = nullptr;  // the replicated tier's network, if any
  std::vector<std::unique_ptr<MpscRing<QueuedRequest>>> queues_;
  std::vector<int> pump_rr_;  // per-group rotating worker clock (Pump mode)

  // Hot-path metrics: per-worker blocks plus service-level atomics for the
  // paths without a worker identity (admission, direct commits, recovery).
  // The registry below is scrape-time only.
  std::vector<WorkerMetrics> worker_metrics_;
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> rejected_{0};
  Histogram queue_depth_;  // sampled at admission
  MetricsRegistry metrics_;

  // Request trace ids are allocated at admission from this counter
  // (per-service, 1-based; 0 means untraced everywhere). The windows vector
  // is sized like worker_metrics_ and never resized, so the cached pointer
  // set stays valid for the watchdog's merges.
  std::atomic<std::uint64_t> trace_counter_{0};
  std::vector<obs::SlidingWindow> windows_;
  std::vector<const obs::SlidingWindow*> window_ptrs_;
  obs::FlightRecorder flight_;
  std::unique_ptr<obs::SloWatchdog> watchdog_;

  std::vector<std::thread> workers_;  // last: they use everything above
};

}  // namespace serve
}  // namespace nearpm

#endif  // SRC_SERVE_FRONT_END_H_
