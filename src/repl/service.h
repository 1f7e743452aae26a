// ReplicatedKvService: the serving tier of src/serve stretched across
// replica groups connected by a simulated network fabric (src/net).
//
// The replicated backend of the shared front end (src/serve/front_end.h):
// a ShardRouter hash-partitions keys across G replica *groups*; each group
// is K full shards (src/serve/shard.h) -- one primary plus K-1 backups, all
// independent simulated machines with their own Runtime, devices and PM.
// Node ids are dense: node = group * replicas + replica. Reads batch on the
// group's routed primary; every mutation commits through the
// durable-coordinator-intent machinery the single-copy service uses,
// extended with replica shipping:
//
//   1. intent   -- the coordinator group's primary persists a redo intent
//                  carrying the full pair set (failure-atomic, drained);
//   2. replicate-- the record travels to every live backup of the group
//                  over the fabric, by one of two selectable protocols:
//                    * primary-backup (kPrimaryBackup): the framed record is
//                      shipped (kIntentShip); the backup CPU writes it
//                      failure-atomically and acks once it is durable;
//                    * one-sided redo (kOneSidedRedo): the primary writes
//                      the raw record straight into the backup's intent
//                      region (kRedoWrite, payload persisted before magic),
//                      rings a doorbell, and the backup's NDP unit replays
//                      it locally; the ack is sent the instant the record
//                      is durable -- replay stays off the ack critical path;
//   3. apply    -- after every ack, each participant group applies its
//                  slice on the primary and every live backup (the backup
//                  apply is the local NDP replay in redo mode);
//   4. sync     -- cross-group completion exchange over the fabric
//                  (kSyncSignal) through per-participant SyncStateMachines,
//                  exactly like the Invariant-3 path of src/serve;
//   5. retire   -- the intent is invalidated on every replica that holds a
//                  copy, primary last.
//
// This is not serve's MultiPut at replicas = 1: it ships every
// non-coordinator slice and exchanges sync signals over the fabric, and a
// single put rides it as a 1-pair transaction, so the two commits stay two.
//
// Because a crash anywhere after step 1 leaves a durable record on at least
// one replica, recovery reconciles the *union* of surviving intents across
// the whole cluster and re-applies every pair to every replica of its
// owning group (idempotent upserts), so replicas converge bit-for-bit.
// Failover promotes the lowest live replica of a group after replaying its
// surviving records -- deterministic, and safe against duplicate replay.
#ifndef SRC_REPL_SERVICE_H_
#define SRC_REPL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/serve/front_end.h"

namespace nearpm {
namespace repl {

using serve::KvPair;
using serve::RequestKind;
using serve::ServeRequest;
using serve::ServeResult;
using serve::Shard;
using serve::ShardRouter;

enum class ReplProtocol : std::uint8_t {
  kPrimaryBackup = 0,  // acked log shipping, backup CPU writes the record
  kOneSidedRedo,       // primary writes the backup's PM; NDP replays locally
};

const char* ReplProtocolName(ReplProtocol protocol);
StatusOr<ReplProtocol> ReplProtocolFromName(const std::string& name);

struct ReplOptions : serve::FrontEndOptions {
  int groups = 4;    // replica groups (hash partitions)
  int replicas = 2;  // nodes per group: 1 primary + replicas-1 backups
  ReplProtocol protocol = ReplProtocol::kPrimaryBackup;
  // Fault injection: one-sided redo records are landed without persisting,
  // so the doorbell (and the ack it implies) races the record -- the NPM007
  // hazard, and a crash can tear an acknowledged record.
  bool skip_redo_persist = false;
};

// Crash injection for the replication fuzzer: where ExecuteReplicatedTxn
// deliberately stops, leaving the replicated protocol mid-flight.
enum class ReplStopPhase : std::uint8_t {
  kNone = 0,        // run to completion
  kAfterIntent,     // primary intent durable, nothing shipped yet
  kMidReplicate,    // backups [0, ordinal] hold the record, acks unprocessed
  kAfterReplicate,  // record durable on every live coordinator replica
  kMidApply,        // participant `ordinal`'s slice puts issued, not drained
  kAfterApply,      // participants [0, ordinal] applied on every replica
  kAfterSync,       // every machine All-Complete, intent not yet retired
};

struct ReplStop {
  ReplStopPhase phase = ReplStopPhase::kNone;
  int ordinal = 0;  // backup index (kMidReplicate) / participant ordinal
};

// The coordinator primary's transaction clock around one replicated commit.
struct TxnClock {
  SimTime start = 0;  // before the intent; when the commit was attempted
  SimTime end = 0;    // after the retire (= start when the commit failed)
};

// Quiesced-state snapshot (call after Stop()/Pump(), not mid-traffic).
// Queued requests only: puts and txns count queued single puts and
// MultiPuts, batches and request_p* cover read batches on the primaries.
struct ReplStats : serve::ServeStats {
  std::uint64_t failovers = 0;
  std::uint64_t intent_redos = 0;
  std::uint64_t net_messages = 0;   // fabric frames, every MsgKind
  std::uint64_t commit_p50_ns = 0;  // replicated commit, intent to retire
  std::uint64_t commit_p99_ns = 0;
};

class ReplicatedKvService : public serve::FrontEnd {
 public:
  static StatusOr<std::unique_ptr<ReplicatedKvService>> Create(
      const ReplOptions& options);
  ~ReplicatedKvService() override;

  const ReplOptions& options() const { return options_; }
  using FrontEnd::node;
  Shard& node(int group, int replica) {
    return node(router_.NodeFor(group, replica));
  }
  int num_groups() const { return options_.groups; }
  bool alive(int n) const { return alive_[n]; }
  net::Fabric& fabric() { return *fabric_; }
  TraceRecorder& fabric_recorder() { return *fabric_recorder_; }

  // The replicated commit (also the path every queued kPut/kMultiPut takes;
  // a single put is a 1-pair transaction, so it rides the same intent +
  // replicate + apply + retire machinery and replicas never diverge on it).
  // `stop` abandons the protocol mid-flight for crash injection; the
  // transaction then reports Unavailable.
  // `trace_id` tags every replica's and the fabric's events with the
  // originating request, so the cross-node timeline can be reconstructed.
  // `clock` (optional) receives the coordinator's transaction clock.
  Status ExecuteReplicatedTxn(const std::vector<KvPair>& pairs,
                              const ReplStop& stop = {},
                              std::uint64_t trace_id = 0,
                              TxnClock* clock = nullptr);

  // Read from the owning group's current primary (Unavailable when it is
  // down and no failover has promoted a backup yet).
  StatusOr<std::vector<std::uint8_t>> Read(std::uint64_t key);

  // ---- Failure, failover and recovery ---------------------------------------
  // Power-fails the listed nodes (plans[i] drives nodes[i]); survivors keep
  // running. Queued requests of groups whose routed primary died fail
  // Unavailable.
  void CrashReplicas(const std::vector<int>& nodes,
                     const std::vector<CrashPlan>& plans);
  // Deterministic failover: promotes the lowest live replica of `group`
  // after replaying its surviving intent records (idempotent redo from the
  // durable log), then re-routes the group to it.
  Status Failover(int group);
  // Recovers every crashed node (mechanism recovery + index rebuild), then
  // reconciles: the union of surviving intents across the whole cluster is
  // re-applied to every replica of each pair's owning group and retired.
  // All replicas of a group are bit-identical afterwards.
  Status RecoverAll();

  // Bit-exact live-table image of one replica (the divergence oracle
  // compares all replicas of a group).
  StatusOr<std::vector<KvPair>> DumpReplica(int group, int replica);

  ReplStats Stats() const;

 private:
  explicit ReplicatedKvService(const ReplOptions& options);

  // Reads under one lock/doorbell/fence on the group's primary, then every
  // mutation through the replicated commit (which takes its own locks).
  void ExecuteBatch(int group, int worker,
                    std::vector<QueuedRequest>& batch) override;
  void PublishCommitMetrics() override;

  // Live replica indices of a group, ascending (primary not necessarily
  // first -- use router_.PrimaryReplica).
  std::vector<int> LiveReplicas(int group) const;

  ReplOptions options_;
  std::vector<bool> alive_;  // index = node id
  std::unique_ptr<TraceRecorder> fabric_recorder_;
  std::unique_ptr<net::Fabric> fabric_;
  std::atomic<std::uint64_t> txn_counter_{0};
  std::atomic<std::uint64_t> failovers_{0};
  Histogram commit_ns_;  // every committed replicated txn, intent to retire
};

}  // namespace repl
}  // namespace nearpm

#endif  // SRC_REPL_SERVICE_H_
