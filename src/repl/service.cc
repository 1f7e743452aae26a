#include "src/repl/service.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/ndp/sync_machine.h"

namespace nearpm {
namespace repl {
namespace {

// Control-message payloads on the fabric (acks, doorbells, sync signals,
// retires, promotions): a header-only frame.
constexpr std::size_t kCtrlBytes = 32;

}  // namespace

const char* ReplProtocolName(ReplProtocol protocol) {
  switch (protocol) {
    case ReplProtocol::kPrimaryBackup:
      return "pb";
    case ReplProtocol::kOneSidedRedo:
      return "redo";
  }
  return "?";
}

StatusOr<ReplProtocol> ReplProtocolFromName(const std::string& name) {
  if (name == "pb") return ReplProtocol::kPrimaryBackup;
  if (name == "redo") return ReplProtocol::kOneSidedRedo;
  return InvalidArgument("unknown replication protocol \"" + name +
                         "\" (want pb|redo)");
}

ReplicatedKvService::ReplicatedKvService(const ReplOptions& options)
    : FrontEnd(options, options.groups, options.replicas, obs::SloSpec{},
               "repl_", "node"),
      options_(options),
      alive_(static_cast<std::size_t>(options.groups * options.replicas),
             true),
      fabric_recorder_(std::make_unique<TraceRecorder>()) {
  net::FabricOptions fo;
  fo.nodes = options.groups * options.replicas;
  fo.hw = options.hw;
  fo.trace = fabric_recorder_.get();
  fabric_ = std::make_unique<net::Fabric>(fo);
}

ReplicatedKvService::~ReplicatedKvService() { Stop(); }

StatusOr<std::unique_ptr<ReplicatedKvService>> ReplicatedKvService::Create(
    const ReplOptions& options) {
  if (options.groups < 1 || options.replicas < 1) {
    return InvalidArgument("need at least one group and one replica");
  }
  NEARPM_RETURN_IF_ERROR(Validate(options));
  auto service =
      std::unique_ptr<ReplicatedKvService>(new ReplicatedKvService(options));
  NEARPM_RETURN_IF_ERROR(
      service->CreateNodes(service->fabric_recorder_.get()));
  return service;
}

void ReplicatedKvService::ExecuteBatch(int group, int worker,
                                       std::vector<QueuedRequest>& batch) {
  serve::WorkerMetrics& wm = worker_metrics(group, worker);
  obs::SlidingWindow& win = window(group, worker);
  std::size_t reads = 0;
  for (const QueuedRequest& item : batch) {
    reads += item.request.kind == RequestKind::kGet ? 1u : 0u;
  }

  const int primary = router_.PrimaryNodeFor(group);
  if (reads > 0 && !alive_[primary]) {
    for (QueuedRequest& item : batch) {
      if (item.request.kind == RequestKind::kGet) {
        ServeResult result;
        result.status = Unavailable("group " + std::to_string(group) +
                                    " primary down");
        item.done.set_value(std::move(result));
      }
    }
  } else if (reads > 0) {
    Shard& shard = node(primary);
    std::lock_guard lock(shard.mu());
    const ThreadId tid = shard.WorkerTid(worker);
    Runtime& rt = shard.rt();
    const SimTime batch_start = rt.Now(tid);
    rt.Compute(tid, rt.options().hw.cost.cmd_post_ns);
    win.RecordDepth(batch_start, Backlog(group));
    for (QueuedRequest& item : batch) {
      if (item.request.kind != RequestKind::kGet) {
        continue;
      }
      rt.Compute(tid, options_.request_parse_ns);
      const SimTime start = rt.Now(tid);
      // Device events the read produces inherit the request's id (the
      // shard lock serializes recorder access).
      TraceIdScope trace_scope(&shard.recorder(), item.trace_id);
      ServeResult result;
      result.shard = group;
      result.trace_id = item.trace_id;
      auto value = shard.Get(tid, item.request.key);
      if (value.ok()) {
        result.value = std::move(*value);
      }
      result.status = value.status();
      const SimTime end = rt.Now(tid);
      NEARPM_TRACE_SPAN(&shard.recorder(), .phase = TracePhase::kServeRequest,
                        .pid = kTraceServePid,
                        .tid = static_cast<std::uint32_t>(tid), .ts = start,
                        .dur = end > start ? end - start : 1,
                        .seq = item.request.key);
      result.latency_ns = end - batch_start;
      wm.request_ns.Add(result.latency_ns);
      wm.gets.fetch_add(1, std::memory_order_relaxed);
      Complete(item, std::move(result), end, wm, win);
    }
    rt.Fence(tid);
    wm.batches.fetch_add(1, std::memory_order_relaxed);
    wm.batch_size.Add(reads);
  }

  if (reads == batch.size()) {
    return;
  }
  // A single put commits as a 1-pair transaction through this buffer, which
  // takes the payload by move.
  std::vector<KvPair> single(1);
  for (QueuedRequest& item : batch) {
    if (item.request.kind == RequestKind::kGet) {
      continue;
    }
    ServeResult result;
    result.shard = group;
    result.trace_id = item.trace_id;
    TxnClock clock;
    if (item.request.kind == RequestKind::kMultiPut) {
      result.status = ExecuteReplicatedTxn(item.request.pairs, {},
                                           item.trace_id, &clock);
      txns_.fetch_add(1, std::memory_order_relaxed);
    } else {
      single[0].key = item.request.key;
      single[0].value = std::move(item.request.value);
      result.status = ExecuteReplicatedTxn(single, {}, item.trace_id, &clock);
      wm.puts.fetch_add(1, std::memory_order_relaxed);
    }
    result.latency_ns = clock.end - clock.start;
    Complete(item, std::move(result), clock.end, wm, win);
  }
}

std::vector<int> ReplicatedKvService::LiveReplicas(int group) const {
  std::vector<int> live;
  for (int r = 0; r < options_.replicas; ++r) {
    if (alive_[router_.NodeFor(group, r)]) {
      live.push_back(r);
    }
  }
  return live;
}

Status ReplicatedKvService::ExecuteReplicatedTxn(
    const std::vector<KvPair>& pairs, const ReplStop& stop,
    std::uint64_t trace_id, TxnClock* clock) {
  const auto bad_size = [] {
    return InvalidArgument("replicated txn must carry 1.." +
                           std::to_string(Shard::kMaxTxnPairs) + " pairs");
  };
  if (pairs.empty()) {
    return bad_size();
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs.size());
  for (const KvPair& pair : pairs) {
    keys.push_back(pair.key);
  }
  const std::vector<int> participants = router_.ParticipantsFor(keys);
  const int k = static_cast<int>(participants.size());

  // Every node of every participant group, locked in ascending node order
  // (the single multi-lock path, so ordering is global and deadlock-free).
  std::vector<std::unique_lock<std::mutex>> locks;
  for (int g : participants) {
    for (int r = 0; r < options_.replicas; ++r) {
      locks.emplace_back(node(g, r).mu());
    }
  }

  const int cg = participants.front();
  const int cp = router_.PrimaryNodeFor(cg);
  Shard& coord = node(cp);
  const ThreadId coord_tid = coord.TxnTid();
  const SimTime txn_start = coord.Now(coord_tid);
  if (clock != nullptr) {
    // Set before any check can fail, so even a rejected commit has an
    // instant for its completion sample.
    clock->start = clock->end = txn_start;
  }
  if (pairs.size() > Shard::kMaxTxnPairs) {
    return bad_size();
  }
  for (int g : participants) {
    if (!alive_[router_.PrimaryNodeFor(g)]) {
      return Unavailable("group " + std::to_string(g) +
                         " primary down; failover required");
    }
  }

  const std::size_t tagged =
      participants.size() * static_cast<std::size_t>(options_.replicas);
  serve::TxnTraceScopes trace_scopes(trace_id, tagged);
  for (int g : participants) {
    for (int r = 0; r < options_.replicas; ++r) {
      trace_scopes.Tag(&node(g, r).recorder());
    }
  }

  const std::uint64_t txn_id = ++txn_counter_;
  const bool redo = options_.protocol == ReplProtocol::kOneSidedRedo;

  // Phase 1 -- durable intent on the coordinator group's primary. From here
  // on, a crash anywhere leads recovery to redo the whole transaction on
  // every replica of every owning group.
  auto intent_slot = coord.WriteIntent(coord_tid, txn_id, pairs);
  if (!intent_slot.ok()) {
    return intent_slot.status();
  }
  coord.Drain(coord_tid);
  if (stop.phase == ReplStopPhase::kAfterIntent) {
    return Unavailable("txn stopped by crash injection: after intent");
  }

  // Phase 2 -- replicate the record to every live backup of the
  // coordinator group. slots[r] remembers where each replica holds its
  // copy; durable[r] is when that copy became durable (the ack instant).
  std::vector<int> slots(options_.replicas, -1);
  std::vector<SimTime> backup_durable(options_.replicas, 0);
  slots[router_.PrimaryReplica(cg)] = *intent_slot;
  std::vector<SimTime> ack_times;
  const std::uint64_t record_bytes = coord.IntentRecordBytes();
  int backup_ordinal = 0;
  bool replicate_stopped = false;
  for (int r = 0; r < options_.replicas && !replicate_stopped; ++r) {
    const int bn = router_.NodeFor(cg, r);
    if (r == router_.PrimaryReplica(cg) || !alive_[bn]) {
      continue;
    }
    Shard& backup = node(bn);
    if (!redo) {
      // Primary-backup: ship the framed record; the backup CPU persists it
      // failure-atomically and acks once it is durable.
      const net::Delivery ship =
          fabric_->Send(cp, bn, record_bytes, coord.Now(coord_tid),
                        net::MsgKind::kIntentShip, txn_id, trace_id);
      backup.rt().WaitUntil(backup.TxnTid(), ship.delivered);
      auto slot = backup.WriteIntent(backup.TxnTid(), txn_id, pairs);
      if (!slot.ok()) {
        return slot.status();
      }
      backup.Drain(backup.TxnTid());
      slots[r] = *slot;
      backup_durable[r] = backup.Now(backup.TxnTid());
      const net::Delivery ack =
          fabric_->Send(bn, cp, kCtrlBytes, backup_durable[r],
                        net::MsgKind::kIntentAck, txn_id, trace_id);
      ack_times.push_back(ack.delivered);
    } else {
      // One-sided redo: the primary writes the raw record into the
      // backup's intent region and rings the replay doorbell; the ack goes
      // out the instant the record is durable, independent of the replay
      // (which the backup's NDP runs locally in the apply phase).
      const net::Delivery write =
          fabric_->Send(cp, bn, record_bytes, coord.Now(coord_tid),
                        net::MsgKind::kRedoWrite, txn_id, trace_id);
      backup.rt().WaitUntil(backup.NicTid(), write.delivered);
      SimTime durable_at = 0;
      auto slot = backup.LandRedoRecord(backup.NicTid(), txn_id, pairs,
                                        !options_.skip_redo_persist,
                                        &durable_at);
      if (!slot.ok()) {
        return slot.status();
      }
      const net::Delivery bell =
          fabric_->Send(cp, bn, kCtrlBytes, coord.Now(coord_tid),
                        net::MsgKind::kDoorbell, txn_id, trace_id);
      backup.rt().WaitUntil(backup.NicTid(), bell.delivered);
      backup.RingDoorbell(backup.NicTid(), *slot, txn_id);
      slots[r] = *slot;
      backup_durable[r] = std::max(durable_at, backup.Now(backup.NicTid()));
      const net::Delivery ack =
          fabric_->Send(bn, cp, kCtrlBytes, durable_at,
                        net::MsgKind::kIntentAck, txn_id, trace_id);
      ack_times.push_back(ack.delivered);
    }
    if (stop.phase == ReplStopPhase::kMidReplicate &&
        stop.ordinal == backup_ordinal) {
      replicate_stopped = true;
    }
    ++backup_ordinal;
  }
  if (replicate_stopped) {
    return Unavailable("txn stopped by crash injection: mid replicate " +
                       std::to_string(stop.ordinal));
  }
  if (stop.phase == ReplStopPhase::kAfterReplicate) {
    return Unavailable("txn stopped by crash injection: after replicate");
  }

  // The commit point: the coordinator has every replica's durability ack.
  for (SimTime ack : ack_times) {
    coord.rt().WaitUntil(coord_tid, std::max(ack, coord.Now(coord_tid)));
  }

  // Phase 3 -- each participant group applies its slice on the primary and
  // every live backup. Non-coordinator groups first learn the slice over
  // the fabric (their backups hold no record; the coordinator intent covers
  // them on crash). In redo mode a coordinator backup's apply is the local
  // NDP replay, ordered after its record became durable.
  std::vector<SyncStateMachine> machines;
  machines.reserve(participants.size());
  for (int i = 0; i < k; ++i) {
    machines.emplace_back(k);
    NEARPM_RETURN_IF_ERROR(machines.back().ReceiveCommand());
  }
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    const int g = participants[ordinal];
    const int pg = router_.PrimaryNodeFor(g);
    if (g != cg && pg != cp) {
      // Hand the slice to the participant group's primary.
      const net::Delivery ship =
          fabric_->Send(cp, pg, record_bytes, coord.Now(coord_tid),
                        net::MsgKind::kIntentShip, txn_id, trace_id);
      node(pg).rt().WaitUntil(node(pg).TxnTid(), ship.delivered);
    }
    for (int r : LiveReplicas(g)) {
      const int n = router_.NodeFor(g, r);
      Shard& replica = node(n);
      const ThreadId tid = replica.TxnTid();
      if (g == cg && n != cp && redo) {
        replica.rt().WaitUntil(
            tid, std::max(backup_durable[r], replica.Now(tid)));
      } else if (n != pg) {
        // Group-internal apply forwarding from the group's primary. A
        // replica already holding the record (pb coordinator backup) only
        // needs the commit trigger; the rest get the full framed slice.
        const std::size_t fwd_bytes =
            slots.size() > static_cast<std::size_t>(r) && g == cg &&
                    slots[r] >= 0
                ? kCtrlBytes
                : record_bytes;
        const net::Delivery fwd =
            fabric_->Send(pg, n, fwd_bytes, node(pg).Now(node(pg).TxnTid()),
                          net::MsgKind::kIntentShip, txn_id, trace_id);
        replica.rt().WaitUntil(tid, fwd.delivered);
      }
      for (const KvPair& pair : pairs) {
        if (router_.ShardFor(pair.key) == g) {
          NEARPM_RETURN_IF_ERROR(replica.Put(tid, pair.key, pair.value));
        }
      }
    }
    if (stop.phase == ReplStopPhase::kMidApply && stop.ordinal == ordinal) {
      // Puts issued but nowhere drained: the crash model finds the slice's
      // device requests in flight on every replica of the group at once.
      return Unavailable("txn stopped by crash injection: mid apply " +
                         std::to_string(ordinal));
    }
    for (int r : LiveReplicas(g)) {
      Shard& replica = node(g, r);
      replica.Drain(replica.TxnTid());
    }
    NEARPM_RETURN_IF_ERROR(machines[ordinal].ReceiveLocalComplete());
    if (stop.phase == ReplStopPhase::kAfterApply &&
        stop.ordinal == ordinal) {
      return Unavailable("txn stopped by crash injection: after apply " +
                         std::to_string(ordinal));
    }
  }

  // Phase 4 -- cross-group completion exchange over the fabric, then all
  // participant primaries rendezvous (Invariant 3: the retire below is a
  // write ordered after this synchronization).
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    const int src = router_.PrimaryNodeFor(participants[ordinal]);
    Shard& sender = node(src);
    for (int peer = 0; peer < k; ++peer) {
      if (peer == ordinal) {
        continue;
      }
      const int dst = router_.PrimaryNodeFor(participants[peer]);
      const net::Delivery sig =
          fabric_->Send(src, dst, kCtrlBytes, sender.Now(sender.TxnTid()),
                        net::MsgKind::kSyncSignal, txn_id, trace_id);
      node(dst).rt().WaitUntil(node(dst).TxnTid(), sig.delivered);
      const DeviceId remote_index = ordinal < peer ? ordinal : ordinal - 1;
      NEARPM_RETURN_IF_ERROR(
          machines[peer].ReceiveRemoteComplete(remote_index));
    }
  }
  SimTime rendezvous = 0;
  for (int g : participants) {
    Shard& primary = node(router_.PrimaryNodeFor(g));
    rendezvous = std::max(rendezvous, primary.Now(primary.TxnTid()));
  }
  rendezvous += coord.rt().options().hw.cost.ndp_remote_status_ns;
  for (int g : participants) {
    Shard& primary = node(router_.PrimaryNodeFor(g));
    primary.rt().WaitUntil(primary.TxnTid(), rendezvous);
  }
  for (int ordinal = 0; ordinal < k; ++ordinal) {
    if (!machines[ordinal].AllComplete()) {
      return Internal("participant " + std::to_string(ordinal) +
                      " not All-Complete before intent retire");
    }
  }
  if (stop.phase == ReplStopPhase::kAfterSync) {
    return Unavailable("txn stopped by crash injection: after sync");
  }

  // Phase 5 -- retire every replica's copy of the record, the coordinator
  // primary last (its intent is the authoritative one recovery redoes).
  for (int r = 0; r < options_.replicas; ++r) {
    const int bn = router_.NodeFor(cg, r);
    if (bn == cp || slots[r] < 0 || !alive_[bn]) {
      continue;
    }
    Shard& backup = node(bn);
    const net::Delivery retire =
        fabric_->Send(cp, bn, kCtrlBytes, coord.Now(coord_tid),
                      net::MsgKind::kRetire, txn_id, trace_id);
    backup.rt().WaitUntil(backup.TxnTid(), retire.delivered);
    NEARPM_RETURN_IF_ERROR(backup.InvalidateIntent(backup.TxnTid(), slots[r]));
    backup.Drain(backup.TxnTid());
  }
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
  commit_ns_.Add(txn_end - txn_start);
  if (clock != nullptr) {
    clock->end = txn_end;
  }
  return Status::Ok();
}

StatusOr<std::vector<std::uint8_t>> ReplicatedKvService::Read(
    std::uint64_t key) {
  const int group = router_.ShardFor(key);
  const int primary = router_.PrimaryNodeFor(group);
  if (!alive_[primary]) {
    return Unavailable("group " + std::to_string(group) +
                       " primary down; failover required");
  }
  Shard& shard = node(primary);
  std::lock_guard lock(shard.mu());
  return shard.Get(shard.TxnTid(), key);
}

void ReplicatedKvService::CrashReplicas(const std::vector<int>& crash_nodes,
                                        const std::vector<CrashPlan>& plans) {
  for (std::size_t i = 0; i < crash_nodes.size(); ++i) {
    const int n = crash_nodes[i];
    std::lock_guard lock(node(n).mu());
    node(n).Crash(i < plans.size() ? plans[i] : CrashPlan{});
    alive_[n] = false;
  }
  // Queued requests of groups whose routed primary died fail Unavailable;
  // other groups keep serving.
  for (int g = 0; g < options_.groups; ++g) {
    if (!alive_[router_.PrimaryNodeFor(g)]) {
      FailQueued(g);
    }
  }
}

Status ReplicatedKvService::Failover(int group) {
  // Quiesced path: promotion replays intents whose pairs may belong to
  // other groups, so take every node lock up front.
  const auto locks = LockAllNodes();
  const std::vector<int> live = LiveReplicas(group);
  if (live.empty()) {
    return Unavailable("group " + std::to_string(group) +
                       " has no live replica to promote");
  }
  const int promoted = live.front();  // deterministic: lowest live index
  const int pn = router_.NodeFor(group, promoted);
  // Promotion from the durable log: the new primary replays its surviving
  // records (idempotent redo) before taking traffic, so an acked-but-not-
  // replayed one-sided record can never be served stale.
  NEARPM_RETURN_IF_ERROR(RedoNodeIntents(pn, &alive_));
  router_.Promote(group, promoted);
  for (int r : live) {
    if (r == promoted) {
      continue;
    }
    const net::Delivery note = fabric_->Send(
        pn, router_.NodeFor(group, r), kCtrlBytes,
        node(pn).Now(node(pn).TxnTid()), net::MsgKind::kPromote, 0);
    Shard& peer = node(group, r);
    peer.rt().WaitUntil(peer.TxnTid(), note.delivered);
  }
  failovers_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status ReplicatedKvService::RecoverAll() {
  const auto locks = LockAllNodes();
  for (int n = 0; n < num_nodes(); ++n) {
    if (alive_[n]) {
      continue;
    }
    NEARPM_RETURN_IF_ERROR(node(n).Recover());
    alive_[n] = true;
  }
  // Reconcile from the union of surviving intents across the cluster: any
  // record that survived anywhere was past its durability point, so its
  // pairs are re-applied to every replica of their owning groups
  // (idempotent upserts) before the record is retired. Replicas of a group
  // are bit-identical afterwards.
  for (int n = 0; n < num_nodes(); ++n) {
    NEARPM_RETURN_IF_ERROR(RedoNodeIntents(n, &alive_));
  }
  return Status::Ok();
}

StatusOr<std::vector<KvPair>> ReplicatedKvService::DumpReplica(int group,
                                                               int replica) {
  Shard& shard = node(group, replica);
  std::lock_guard lock(shard.mu());
  return shard.DumpTable(shard.TxnTid());
}

ReplStats ReplicatedKvService::Stats() const {
  ReplStats stats;
  static_cast<serve::ServeStats&>(stats) = MergeStats();
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.intent_redos = intent_redos_.load(std::memory_order_relaxed);
  stats.net_messages = fabric_->total_messages();
  stats.commit_p50_ns = commit_ns_.Percentile(0.5);
  stats.commit_p99_ns = commit_ns_.Percentile(0.99);
  return stats;
}

void ReplicatedKvService::PublishCommitMetrics() {
  metrics().Counter("repl_commits").store(commit_ns_.count());
  metrics().Counter("repl_failovers")
      .store(failovers_.load(std::memory_order_relaxed));
  metrics().Counter("repl_intent_redos")
      .store(intent_redos_.load(std::memory_order_relaxed));
  metrics().Latency("repl_commit_ns") = commit_ns_;
}

}  // namespace repl
}  // namespace nearpm
