#include "src/serve/front_end.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/prof/profile.h"
#include "src/trace/ppo_checker.h"

namespace nearpm {
namespace serve {
namespace {

// Stores `from`'s totals into `to` (counters and histograms replaced, not
// added), so publishing the same source twice changes nothing.
void StoreTotals(const MetricsRegistry& from, MetricsRegistry* to) {
  for (const auto& [name, value] : from.counters()) {
    to->Counter(name).store(value.load(std::memory_order_relaxed));
  }
  for (const auto& [name, gauge] : from.gauges()) {
    to->SetGauge(name, gauge.value());
  }
  for (const auto& [name, histogram] : from.histograms()) {
    to->Latency(name) = histogram;
  }
}

}  // namespace

Status FrontEnd::Validate(const FrontEndOptions& options) {
  if (options.workers_per_shard < 1 || options.batch_max < 1 ||
      options.queue_capacity < 1) {
    return InvalidArgument(
        "workers, batch_max and queue_capacity must be >= 1");
  }
  if (options.slo) {
    return options.slo->Validate();
  }
  return Status::Ok();
}

FrontEnd::FrontEnd(const FrontEndOptions& options, int groups, int replicas,
                   std::string metric_prefix, std::string node_label)
    : front_(options),
      router_(groups, replicas),
      prefix_(std::move(metric_prefix)),
      node_label_(std::move(node_label)),
      worker_metrics_(static_cast<std::size_t>(groups) *
                      static_cast<std::size_t>(options.workers_per_shard)) {
  for (int g = 0; g < groups; ++g) {
    queues_.push_back(
        std::make_unique<MpscRing<QueuedRequest>>(options.queue_capacity));
  }
  pump_rr_.assign(groups, 0);

  // One sliding window per (group, worker), mirroring the WorkerMetrics
  // layout so the hot path touches only writer-private state.
  const obs::SloSpec shape = options.slo.value_or(obs::SloSpec{});
  obs::WindowOptions wo;
  wo.window_ns = static_cast<SimTime>(shape.window_ns);
  wo.slow_k = shape.slow_k;
  windows_.reserve(worker_metrics_.size());
  for (std::size_t i = 0; i < worker_metrics_.size(); ++i) {
    windows_.emplace_back(wo);
  }
  window_ptrs_.reserve(windows_.size());
  for (const obs::SlidingWindow& win : windows_) {
    window_ptrs_.push_back(&win);
  }
}

FrontEnd::~FrontEnd() { Stop(); }

Status FrontEnd::CreateNodes(TraceRecorder* fabric) {
  ShardOptions so;
  so.mode = front_.mode;
  so.enforce_ppo = front_.enforce_ppo;
  so.skip_recovery_replay = front_.skip_recovery_replay;
  so.pm_size = front_.pm_size;
  so.table_slots = front_.table_slots;
  so.value_size = front_.value_size;
  so.workers = front_.workers_per_shard;
  so.hw = front_.hw;
  for (int n = 0; n < router_.num_nodes(); ++n) {
    auto shard = Shard::Create(so, n);
    if (!shard.ok()) {
      return shard.status();
    }
    nodes_.push_back(std::move(*shard));
  }

  // The black box reads every node recorder and then the fabric's, so it
  // covers in-flight messages too.
  fabric_ = fabric;
  for (auto& node : nodes_) {
    flight_.AddSource(node_label_ + std::to_string(node->id()),
                      &node->recorder());
  }
  if (fabric_ != nullptr) {
    flight_.AddSource("fabric", fabric_);
  }
  if (front_.slo) {
    obs::WatchdogOptions wd;
    wd.spec = *front_.slo;
    wd.flight = &flight_;
    wd.dump_path = front_.slo_dump_path;
    watchdog_ = std::make_unique<obs::SloWatchdog>(wd);
  }
  return Status::Ok();
}

StatusOr<std::future<ServeResult>> FrontEnd::Submit(ServeRequest request) {
  int group;
  if (request.kind == RequestKind::kMultiPut) {
    if (request.pairs.empty()) {
      return InvalidArgument("MultiPut carries no pairs");
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(request.pairs.size());
    for (const KvPair& pair : request.pairs) {
      keys.push_back(pair.key);
    }
    group = router_.ParticipantsFor(keys).front();  // coordinator
  } else {
    group = router_.ShardFor(request.key);
  }

  // Cheap pre-check before paying for the promise/future pair: a full ring
  // rejects most attempts here, without allocating the completion channel
  // the push would only throw away. TryPush below stays authoritative.
  MpscRing<QueuedRequest>& queue = *queues_[group];
  const auto reject = [&] {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ResourceExhausted("shard " + std::to_string(group) +
                             " queue full (" +
                             std::to_string(queue.capacity()) +
                             " requests), retry after draining");
  };
  const std::size_t depth = queue.size();
  if (depth >= queue.capacity()) {
    return reject();
  }
  QueuedRequest item;
  item.request = std::move(request);
  // The request's identity for the rest of its life: stamped on every trace
  // event it produces, on any node and fabric link (a rejected push burns
  // an id; ids only need to be unique, not dense).
  item.trace_id = trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<ServeResult> done = item.done.get_future();
  if (!queue.TryPush(item)) {
    return reject();
  }
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.Add(depth);
  return done;
}

void FrontEnd::Start() {
  for (int g = 0; g < router_.num_shards(); ++g) {
    for (int w = 0; w < front_.workers_per_shard; ++w) {
      workers_.emplace_back([this, g, w] { WorkerLoop(g, w); });
    }
  }
}

void FrontEnd::Stop() {
  for (auto& queue : queues_) {
    queue->Close();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

void FrontEnd::WorkerLoop(int group, int worker) {
  MpscRing<QueuedRequest>& queue = *queues_[group];
  std::vector<QueuedRequest> batch;  // reused across batches
  batch.reserve(static_cast<std::size_t>(front_.batch_max));
  while (true) {
    auto first = queue.Pop();  // blocks; empty optional = closed + drained
    if (!first.has_value()) {
      return;
    }
    batch.push_back(std::move(*first));
    while (batch.size() < static_cast<std::size_t>(front_.batch_max)) {
      auto more = queue.TryPop();
      if (!more.has_value()) {
        break;
      }
      batch.push_back(std::move(*more));
    }
    RunBatch(group, worker, batch);
    // Tear the finished requests down before waiting for the next ones, so
    // the teardown stays off the next request's path.
    batch.clear();
  }
}

std::uint64_t FrontEnd::Pump() {
  std::uint64_t executed = 0;
  std::vector<QueuedRequest> batch;  // reused across batches
  batch.reserve(static_cast<std::size_t>(front_.batch_max));
  bool progress = true;
  while (progress) {
    progress = false;
    for (int g = 0; g < router_.num_shards(); ++g) {
      batch.clear();
      while (batch.size() < static_cast<std::size_t>(front_.batch_max)) {
        auto item = queues_[g]->TryPop();
        if (!item.has_value()) {
          break;
        }
        batch.push_back(std::move(*item));
      }
      if (batch.empty()) {
        continue;
      }
      progress = true;
      executed += batch.size();
      const int worker = pump_rr_[g];
      pump_rr_[g] = (pump_rr_[g] + 1) % front_.workers_per_shard;
      RunBatch(g, worker, batch);
    }
  }
  return executed;
}

void FrontEnd::RunBatch(int group, int worker,
                        std::vector<QueuedRequest>& batch) {
  const SimTime end = ExecuteBatch(group, worker, batch);
  if (watchdog_ == nullptr) {
    return;
  }
  // A breach's kSloAlert instant lands on the group primary's trace, so the
  // check holds that node's lock.
  Shard& primary = *nodes_[router_.PrimaryNodeFor(group)];
  std::lock_guard lock(primary.mu());
  const std::uint64_t stalled = rejected_.load(std::memory_order_relaxed);
  const std::uint64_t attempted =
      stalled + enqueued_.load(std::memory_order_relaxed);
  watchdog_->MaybeCheck(end, window_ptrs_, stalled, attempted,
                        &primary.recorder());
}

obs::WindowStats FrontEnd::WindowSnapshot(SimTime now) const {
  return obs::SlidingWindow::Merge(window_ptrs_, now);
}

std::vector<TimelineSource> FrontEnd::TimelineSources() const {
  return flight_.Snapshot(std::numeric_limits<std::size_t>::max());
}

void FrontEnd::FailQueued(int group) {
  while (auto item = queues_[group]->TryPop()) {
    ServeResult result;
    result.status = Unavailable("request lost in power failure");
    item->done.set_value(std::move(result));
  }
}

std::vector<std::unique_lock<std::mutex>> FrontEnd::LockAllNodes() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(nodes_.size());
  for (auto& node : nodes_) {
    locks.emplace_back(node->mu());
  }
  return locks;
}

Status FrontEnd::RedoNodeIntents(int n, const std::vector<bool>* alive) {
  Shard& holder = *nodes_[n];
  auto intents = holder.ScanIntents(holder.TxnTid());
  if (!intents.ok()) {
    return intents.status();
  }
  // Any intent that survived was past its durability point: re-apply every
  // pair (idempotent upsert) before retiring it -- all-or-nothing across
  // groups, and every live replica of a group converges.
  for (const IntentRecord& intent : *intents) {
    if (!front_.break_intent_redo) {
      for (const KvPair& pair : intent.pairs) {
        const int g = router_.ShardFor(pair.key);
        for (int r = 0; r < router_.replicas(); ++r) {
          const int owner_id = router_.NodeFor(g, r);
          if (alive != nullptr && !(*alive)[owner_id]) {
            continue;
          }
          Shard& owner = *nodes_[owner_id];
          NEARPM_RETURN_IF_ERROR(
              owner.Put(owner.TxnTid(), pair.key, pair.value));
          owner.Drain(owner.TxnTid());
        }
      }
    }
    NEARPM_RETURN_IF_ERROR(
        holder.InvalidateIntent(holder.TxnTid(), intent.slot));
    holder.Drain(holder.TxnTid());
    intent_redos_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

std::uint64_t FrontEnd::PpoViolations(std::string* report) {
  std::uint64_t total = 0;
  for (auto& node : nodes_) {
    std::lock_guard lock(node->mu());
    const auto violations = PpoChecker{}.Check(node->recorder());
    total += violations.size();
    if (report != nullptr && !violations.empty()) {
      *report += node_label_ + " " + std::to_string(node->id()) + ":\n" +
                 PpoChecker::Report(violations);
    }
  }
  return total;
}

ServeStats FrontEnd::Stats() const {
  // One pass over the per-worker blocks; no registry lookups.
  ServeStats stats;
  Histogram request_ns;
  for (const WorkerMetrics& wm : worker_metrics_) {
    stats.completed += wm.completed.load(std::memory_order_relaxed);
    stats.puts += wm.puts.load(std::memory_order_relaxed);
    stats.gets += wm.gets.load(std::memory_order_relaxed);
    stats.batches += wm.batches.load(std::memory_order_relaxed);
    request_ns.MergeFrom(wm.request_ns);
  }
  stats.txns = txns_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  for (const auto& node : nodes_) {
    stats.makespan_ns = std::max(stats.makespan_ns, node->MakespanNs());
  }
  stats.request_p50_ns = request_ns.Percentile(0.5);
  stats.request_p99_ns = request_ns.Percentile(0.99);
  if (stats.makespan_ns > 0) {
    stats.throughput_ops_per_sec = static_cast<double>(stats.completed) /
                                   (static_cast<double>(stats.makespan_ns) /
                                    1e9);
  }
  return stats;
}

void FrontEnd::PublishMetrics() {
  // Merge the worker blocks, then *store* the totals: publishing is
  // idempotent, so scrapes never double-count.
  const ServeStats stats = Stats();
  Histogram request_ns;
  Histogram batch_size;
  for (const WorkerMetrics& wm : worker_metrics_) {
    request_ns.MergeFrom(wm.request_ns);
    batch_size.MergeFrom(wm.batch_size);
  }
  metrics_.Counter(prefix_ + "completed").store(stats.completed);
  metrics_.Counter(prefix_ + "puts").store(stats.puts);
  metrics_.Counter(prefix_ + "gets").store(stats.gets);
  metrics_.Counter(prefix_ + "batches").store(stats.batches);
  metrics_.Counter(prefix_ + "txns").store(stats.txns);
  metrics_.Counter(prefix_ + "rejected").store(stats.rejected);
  metrics_.Counter(prefix_ + "enqueued")
      .store(enqueued_.load(std::memory_order_relaxed));
  metrics_.Latency(prefix_ + "request_ns") = request_ns;
  metrics_.Latency(prefix_ + "batch_size") = batch_size;
  metrics_.Latency(prefix_ + "queue_depth") = queue_depth_;

  // The live view: sliding-window aggregates as of the slowest node's
  // clock, published as gauges (they describe "now", not "ever").
  const obs::WindowStats win = WindowSnapshot(stats.makespan_ns);
  metrics_.SetGauge(prefix_ + "window_qps", win.Qps());
  metrics_.SetGauge(prefix_ + "window_error_rate", win.ErrorRate());
  metrics_.SetGauge(prefix_ + "window_count", static_cast<double>(win.count));
  metrics_.SetGauge(prefix_ + "window_p50_ns",
                    static_cast<double>(win.latency.Percentile(0.5)));
  metrics_.SetGauge(prefix_ + "window_p99_ns",
                    static_cast<double>(win.latency.Percentile(0.99)));
  metrics_.SetGauge(prefix_ + "window_depth_max",
                    static_cast<double>(win.depth_max));
  if (watchdog_ != nullptr) {
    metrics_.Counter(prefix_ + "slo_checks").store(watchdog_->checks());
    metrics_.Counter(prefix_ + "slo_alerts").store(watchdog_->alert_count());
    metrics_.Counter(prefix_ + "slo_dump_failures")
        .store(watchdog_->dump_failures());
  }
  // The fabric's per-kind message/byte counters and transfer latencies.
  if (fabric_ != nullptr) {
    StoreTotals(fabric_->metrics(), &metrics_);
  }
  PublishCommitMetrics();
}

void FrontEnd::ExportResourceMetrics() {
  PublishMetrics();
  for (auto& node : nodes_) {
    std::lock_guard lock(node->mu());
    const std::string id = EscapeLabelValue(std::to_string(node->id()));
    nearpm::ExportResourceMetrics(BuildProfile(node->recorder()), &metrics_,
                                  prefix_, node_label_ + "=\"" + id + "\",");
  }
  // The fabric's own track stream: one kNetXfer lane per directed link,
  // folded into per-link duty cycles.
  if (fabric_ != nullptr) {
    nearpm::ExportResourceMetrics(BuildProfile(*fabric_), &metrics_, prefix_,
                                  node_label_ + "=\"fabric\",");
  }
}

}  // namespace serve
}  // namespace nearpm
