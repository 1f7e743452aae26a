#include "src/serve/service.h"

#include <algorithm>
#include <utility>

#include "src/ndp/sync_machine.h"

namespace nearpm {
namespace serve {

KvService::KvService(const ServeOptions& options)
    : FrontEnd(options, options.shards, /*replicas=*/1, options.slo, "serve_",
               "shard"),
      options_(options) {}

KvService::~KvService() { Stop(); }

StatusOr<std::unique_ptr<KvService>> KvService::Create(
    const ServeOptions& options) {
  if (options.shards < 1) {
    return InvalidArgument("service needs at least one shard");
  }
  NEARPM_RETURN_IF_ERROR(Validate(options));
  if (options.slo_enabled) {
    NEARPM_RETURN_IF_ERROR(options.slo.Validate());
  }
  auto service = std::unique_ptr<KvService>(new KvService(options));
  NEARPM_RETURN_IF_ERROR(service->CreateNodes(/*fabric=*/nullptr));
  if (options.slo_enabled) {
    obs::WatchdogOptions wd;
    wd.spec = options.slo;
    wd.flight = service->flight_.get();
    wd.dump_path = options.slo_dump_path;
    service->watchdog_ = std::make_unique<obs::SloWatchdog>(wd);
  }
  return service;
}

void KvService::ExecuteLocal(Shard& shard, ThreadId tid, QueuedRequest& item,
                             SimTime batch_start, WorkerMetrics& wm,
                             obs::SlidingWindow& win) {
  Runtime& rt = shard.rt();
  const SimTime start = rt.Now(tid);
  rt.Compute(tid, options_.request_parse_ns);

  // Every event the shard records while this request executes -- queue,
  // device pipeline, PM writes -- inherits its trace id (the caller holds
  // shard.mu(), which serializes all recorder access).
  TraceIdScope trace_scope(&shard.recorder(), item.trace_id);

  ServeResult result;
  result.shard = shard.id();
  result.trace_id = item.trace_id;
  switch (item.request.kind) {
    case RequestKind::kPut:
      result.status = shard.Put(tid, item.request.key, item.request.value);
      wm.puts.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestKind::kGet: {
      auto value = shard.Get(tid, item.request.key);
      if (value.ok()) {
        result.value = std::move(*value);
      }
      result.status = value.status();
      wm.gets.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case RequestKind::kMultiPut:
      result.status = Internal("MultiPut routed to the local batch path");
      break;
  }

  const SimTime end = rt.Now(tid);
  NEARPM_TRACE_SPAN(&shard.recorder(), .phase = TracePhase::kServeRequest,
                    .pid = kTraceServePid,
                    .tid = static_cast<std::uint32_t>(tid), .ts = start,
                    .dur = end > start ? end - start : 1,
                    .seq = item.request.key);
  result.latency_ns = end - batch_start;
  wm.request_ns.Add(result.latency_ns);
  Complete(item, std::move(result), end, wm, win);
}

void KvService::ExecuteBatch(int shard_id, int worker,
                             std::vector<QueuedRequest>& batch) {
  Shard& shard = node(shard_id);
  const ThreadId tid = shard.WorkerTid(worker);
  WorkerMetrics& wm = worker_metrics(shard_id, worker);
  obs::SlidingWindow& win = window(shard_id, worker);

  // Split in place: locals run under one lock/doorbell/fence, transactions
  // after (they take their participants' locks themselves). No per-batch
  // scratch vectors -- this runs once per batch_max requests, but the
  // allocations still showed up at ring speed.
  std::size_t locals = 0;
  for (const QueuedRequest& item : batch) {
    locals += item.request.kind != RequestKind::kMultiPut ? 1u : 0u;
  }

  if (locals > 0) {
    std::lock_guard lock(shard.mu());
    Runtime& rt = shard.rt();
    const SimTime batch_start = rt.Now(tid);
    // The amortization: one submission doorbell and one fence cover the
    // whole batch (batch_max = 1 degenerates to per-request costs).
    rt.Compute(tid, rt.options().hw.cost.cmd_post_ns);
    NEARPM_TRACE_EVENT(&shard.recorder(), .phase = TracePhase::kServeEnqueue,
                       .pid = kTraceServePid,
                       .tid = static_cast<std::uint32_t>(tid),
                       .ts = batch_start, .arg0 = locals);
    // Residual backlog after this batch was picked up: the shard-queue
    // occupancy series the profiler and Perfetto counter track render.
    const std::uint64_t backlog = Backlog(shard_id);
    NEARPM_TRACE_EVENT(&shard.recorder(),
                       .phase = TracePhase::kServeQueueDepth,
                       .pid = kTraceServePid,
                       .tid = static_cast<std::uint32_t>(tid),
                       .ts = batch_start, .arg0 = backlog);
    win.RecordDepth(batch_start, backlog);
    for (QueuedRequest& item : batch) {
      if (item.request.kind == RequestKind::kMultiPut) {
        continue;
      }
      ExecuteLocal(shard, tid, item, batch_start, wm, win);
    }
    rt.Fence(tid);
    const SimTime batch_end = rt.Now(tid);
    NEARPM_TRACE_SPAN(&shard.recorder(), .phase = TracePhase::kServeBatch,
                      .pid = kTraceServePid,
                      .tid = static_cast<std::uint32_t>(tid), .ts = batch_start,
                      .dur = batch_end > batch_start ? batch_end - batch_start
                                                     : 1,
                      .arg0 = locals);
    wm.batches.fetch_add(1, std::memory_order_relaxed);
    wm.batch_size.Add(locals);
    // Batch boundary = SLO evaluation point; still under the shard lock, so
    // a breach's kSloAlert instant can land on this shard's trace.
    SloCheck(batch_end, &shard.recorder());
  }

  if (locals == batch.size()) {
    return;
  }
  SimTime txn_last_end = 0;
  for (QueuedRequest& item : batch) {
    if (item.request.kind != RequestKind::kMultiPut) {
      continue;
    }
    // The coordinator is this shard (Submit routed the request here), so
    // its clock brackets the transaction for the latency sample. Clock
    // reads take the shard lock: a peer worker's transaction on this shard
    // advances the same TxnTid clock concurrently.
    const ThreadId coord_tid = shard.TxnTid();
    SimTime txn_start;
    {
      std::lock_guard lock(shard.mu());
      txn_start = shard.Now(coord_tid);
    }
    ServeResult result;
    result.shard = shard_id;
    result.trace_id = item.trace_id;
    result.status = ExecuteMultiPut(item.request.pairs, {}, item.trace_id);
    SimTime txn_end;
    {
      std::lock_guard lock(shard.mu());
      txn_end = shard.Now(coord_tid);
    }
    result.latency_ns = txn_end > txn_start ? txn_end - txn_start : 0;
    txn_last_end = txn_end;
    Complete(item, std::move(result), txn_end, wm, win);
  }
  if (watchdog_ != nullptr) {
    std::lock_guard lock(shard.mu());
    SloCheck(txn_last_end, &shard.recorder());
  }
}

Status KvService::ExecuteMultiPut(const std::vector<KvPair>& pairs,
                                  const TxnStop& stop,
                                  std::uint64_t trace_id) {
  if (pairs.empty() || pairs.size() > Shard::kMaxTxnPairs) {
    return InvalidArgument("MultiPut must carry 1.." +
                           std::to_string(Shard::kMaxTxnPairs) + " pairs");
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs.size());
  for (const KvPair& pair : pairs) {
    keys.push_back(pair.key);
  }
  const std::vector<int> participants = router_.ParticipantsFor(keys);
  const int k = static_cast<int>(participants.size());

  // Participant locks in ascending shard order: the only multi-lock path in
  // the service, so lock ordering is global and deadlock-free.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(participants.size());
  for (int p : participants) {
    locks.emplace_back(node(p).mu());
  }

  Shard& coord = node(participants.front());
  const ThreadId coord_tid = coord.TxnTid();
  const std::uint64_t txn_id = ++txn_counter_;
  const SimTime txn_start = coord.Now(coord_tid);

  TxnTraceScopes trace_scopes(trace_id, participants.size());
  for (int p : participants) {
    trace_scopes.Tag(&node(p).recorder());
  }

  // Phase 1 -- durable intent on the coordinator. Drained before any slice
  // applies: after this point a crash anywhere leads recovery to redo the
  // whole transaction; before it, to none of it. All-or-nothing either way.
  auto intent_slot = coord.WriteIntent(coord_tid, txn_id, pairs);
  if (!intent_slot.ok()) {
    return intent_slot.status();
  }
  coord.Drain(coord_tid);
  if (stop.phase == TxnStopPhase::kAfterIntent) {
    return Unavailable("txn stopped by crash injection: after intent");
  }

  // Phase 2 -- duplicate the command to every participant's sync machine
  // (Figure 12: each device tracks local + remote completion).
  std::vector<SyncStateMachine> machines;
  machines.reserve(participants.size());
  for (int i = 0; i < k; ++i) {
    machines.emplace_back(k);
    NEARPM_RETURN_IF_ERROR(machines.back().ReceiveCommand());
  }

  // Phase 3 -- each participant applies its slice failure-atomically, drains
  // it durable and signals local completion.
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    Shard& shard = node(participants[ordinal]);
    const ThreadId tid = shard.TxnTid();
    for (const KvPair& pair : pairs) {
      if (router_.ShardFor(pair.key) != shard.id()) {
        continue;
      }
      NEARPM_RETURN_IF_ERROR(shard.Put(tid, pair.key, pair.value));
    }
    if (stop.phase == TxnStopPhase::kMidApply &&
        stop.apply_ordinal == ordinal) {
      // Puts issued but neither drained nor signalled: the crash model sees
      // the slice's device requests still in flight.
      return Unavailable("txn stopped by crash injection: mid apply " +
                         std::to_string(ordinal));
    }
    shard.Drain(tid);
    NEARPM_RETURN_IF_ERROR(machines[ordinal].ReceiveLocalComplete());
    if (stop.phase == TxnStopPhase::kAfterApply &&
        stop.apply_ordinal == ordinal) {
      return Unavailable("txn stopped by crash injection: after apply " +
                         std::to_string(ordinal));
    }
  }

  // Phase 4 -- completion exchange: every participant learns every remote
  // completion, and all clocks rendezvous at the slowest participant plus
  // one remote status exchange.
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    for (int peer = 0; peer < k; ++peer) {
      if (peer == ordinal) {
        continue;
      }
      const DeviceId remote_index = peer < ordinal ? peer : peer - 1;
      NEARPM_RETURN_IF_ERROR(
          machines[ordinal].ReceiveRemoteComplete(remote_index));
    }
  }
  SimTime rendezvous = 0;
  for (int p : participants) {
    rendezvous = std::max(rendezvous, node(p).Now(node(p).TxnTid()));
  }
  rendezvous += coord.rt().options().hw.cost.ndp_remote_status_ns;
  for (int p : participants) {
    node(p).rt().WaitUntil(node(p).TxnTid(), rendezvous);
  }

  // Invariant 3: the retire write below is ordered after the cross-shard
  // synchronization, so it must not issue until every participant is back
  // in All-Complete.
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    if (!machines[ordinal].AllComplete()) {
      return Internal("participant " + std::to_string(ordinal) +
                      " not All-Complete before intent retire");
    }
  }
  if (stop.phase == TxnStopPhase::kAfterSync) {
    return Unavailable("txn stopped by crash injection: after sync");
  }

  // Phase 5 -- retire the intent (the write ordered after the sync).
  NEARPM_RETURN_IF_ERROR(coord.InvalidateIntent(coord_tid, *intent_slot));
  coord.Drain(coord_tid);

  const SimTime txn_end = coord.Now(coord_tid);
  NEARPM_TRACE_SPAN(&coord.recorder(), .phase = TracePhase::kServeTxn,
                    .pid = kTraceServePid,
                    .tid = static_cast<std::uint32_t>(coord_tid),
                    .ts = txn_start,
                    .dur = txn_end > txn_start ? txn_end - txn_start : 1,
                    .seq = txn_id, .arg0 = static_cast<std::uint64_t>(k),
                    .trace = trace_id);
  txns_.fetch_add(1, std::memory_order_relaxed);
  txn_ns_.Add(txn_end - txn_start);
  return Status::Ok();
}

void KvService::CrashAll(const std::vector<CrashPlan>& plans) {
  for (int s = 0; s < num_shards(); ++s) {
    std::lock_guard lock(shard(s).mu());
    shard(s).Crash(s < static_cast<int>(plans.size()) ? plans[s]
                                                      : CrashPlan{});
  }
  // The power failure also loses every admitted-but-unexecuted request.
  for (int s = 0; s < num_shards(); ++s) {
    FailQueued(s);
  }
}

Status KvService::RecoverAll() {
  // Quiesced path (no workers running): take every shard lock up front.
  const auto locks = LockAllNodes();
  for (int s = 0; s < num_shards(); ++s) {
    NEARPM_RETURN_IF_ERROR(shard(s).Recover());
  }
  // Cross-shard intent redo (replicas = 1: each pair's owner is one shard).
  for (int s = 0; s < num_shards(); ++s) {
    NEARPM_RETURN_IF_ERROR(RedoNodeIntents(s));
  }
  return Status::Ok();
}

void KvService::PublishCommitMetrics() {
  metrics().Counter("serve_txn_redos")
      .store(intent_redos_.load(std::memory_order_relaxed));
  metrics().Latency("serve_txn_ns") = txn_ns_;
}

}  // namespace serve
}  // namespace nearpm
