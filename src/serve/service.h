// KvService: the sharded serving front end (the paper's storage-class
// "service" shape: many independent NearPM machines behind one API).
//
// The single-copy backend of the shared front end (src/serve/front_end.h):
// a ShardRouter hash-partitions keys across N shards, each an independent
// Runtime + device group (src/serve/shard.h), and every shard drains its
// admission ring in batches: one front-end doorbell charge and one fence per
// batch instead of per request, the classic amortization knob.
//
// Cross-shard MultiPut follows the paper's Invariant 3 end to end: the
// coordinator persists a redo intent (failure-atomic, drained durable),
// every participant applies its slice and signals a per-participant
// SyncStateMachine, remote completions are exchanged, and only when every
// machine is back in All-Complete is the intent retired -- a write ordered
// after the synchronization. A crash anywhere in between recovers
// all-or-nothing via RecoverAll()'s intent redo.
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/serve/front_end.h"

namespace nearpm {
namespace serve {

struct ServeOptions : FrontEndOptions {
  int shards = 4;

  // ---- SLO watchdog ---------------------------------------------------------
  // When enabled, `slo` is evaluated at batch boundaries over the per-worker
  // sliding windows; a breach dumps the flight record to `slo_dump_path`
  // (empty = in-memory alert only). The window shape (window_ns, slow_k)
  // always comes from `slo`, watchdog or not.
  bool slo_enabled = false;
  obs::SloSpec slo;
  std::string slo_dump_path;
};

// Crash injection for the serve fuzzer: where ExecuteMultiPut deliberately
// stops, leaving the cross-shard protocol mid-flight.
enum class TxnStopPhase : std::uint8_t {
  kNone = 0,     // run to completion
  kAfterIntent,  // intent durable, no slice applied yet
  kMidApply,     // apply_ordinal's puts issued but not drained or signalled
  kAfterApply,   // participants [0, apply_ordinal] applied + local-complete
  kAfterSync,    // every participant All-Complete, intent not yet retired
};

struct TxnStop {
  TxnStopPhase phase = TxnStopPhase::kNone;
  int apply_ordinal = 0;  // kAfterApply: last participant ordinal applied
};

// Stats() counts queued requests: puts/gets/batches/request_p* cover the
// local batch path, completed adds queued MultiPuts, and txns counts every
// committed ExecuteMultiPut (queued or direct).
class KvService : public FrontEnd {
 public:
  static StatusOr<std::unique_ptr<KvService>> Create(
      const ServeOptions& options);
  ~KvService() override;

  const ServeOptions& options() const { return options_; }
  Shard& shard(int s) { return node(s); }
  int num_shards() const { return num_nodes(); }

  // Direct cross-shard transaction (also the path queued kMultiPut requests
  // take). `stop` deliberately abandons the protocol mid-flight for crash
  // injection; the transaction then reports Unavailable. `trace_id` tags
  // every participant's events with the originating request.
  Status ExecuteMultiPut(const std::vector<KvPair>& pairs,
                         const TxnStop& stop = {}, std::uint64_t trace_id = 0);

  // ---- Failure and recovery -------------------------------------------------
  // Power-fails every shard (plans[s] drives shard s) and drops volatile
  // service state. Queued-but-unexecuted requests fail Unavailable.
  void CrashAll(const std::vector<CrashPlan>& plans);
  // Mechanism recovery on every shard, then cross-shard intent redo: every
  // surviving intent is re-applied to every owner shard (idempotent upsert)
  // and retired, restoring the all-or-nothing guarantee.
  Status RecoverAll();

  ServeStats Stats() const { return MergeStats(); }

 private:
  explicit KvService(const ServeOptions& options);

  // Executes one batch in place: single-shard requests under the shard lock
  // with one doorbell + one fence, then cross-shard transactions (which
  // take their participants' locks themselves).
  void ExecuteBatch(int shard_id, int worker,
                    std::vector<QueuedRequest>& batch) override;
  void ExecuteLocal(Shard& shard, ThreadId tid, QueuedRequest& item,
                    SimTime batch_start, WorkerMetrics& wm,
                    obs::SlidingWindow& win);
  void PublishCommitMetrics() override;

  ServeOptions options_;
  std::atomic<std::uint64_t> txn_counter_{0};
  Histogram txn_ns_;
};

}  // namespace serve
}  // namespace nearpm

#endif  // SRC_SERVE_SERVICE_H_
