// Workload interface: the nine PM applications of Table 4.
//
// Every workload builds a persistent data structure (or table schema) on a
// PersistentHeap, runs failure-atomic operations against it, and can verify
// its own structural invariants -- which makes each workload double as a
// crash-consistency test: run ops, crash, recover, Verify().
#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/pmlib/heap.h"

namespace nearpm {

struct WorkloadConfig {
  Mechanism mechanism = Mechanism::kLogging;
  int threads = 1;
  std::uint64_t data_size = 8ull << 20;  // per pool
  int ckpt_epoch_ops = 8;
  std::uint64_t seed = 1;
  // Scale of the initial population (keys preloaded before measurement).
  std::uint64_t initial_keys = 1000;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  // Creates pools and the initial persistent state.
  virtual Status Setup(Runtime& rt, PoolArena& arena,
                       const WorkloadConfig& config) = 0;

  // Executes one failure-atomic application operation on thread `t`
  // (including its own BeginOp/CommitOp bracketing and app-side compute).
  virtual Status RunOp(ThreadId t, Rng& rng) = 0;

  // Structural invariant check; called after recovery in crash tests.
  virtual Status Verify() = 0;

  // Crash hooks (default: single-heap workloads).
  virtual void DropVolatile() {
    for (auto& heap : heaps_) {
      heap->DropVolatile();
    }
  }
  virtual Status Recover() {
    for (auto& heap : heaps_) {
      NEARPM_RETURN_IF_ERROR(heap->Recover());
    }
    return Status::Ok();
  }

  PersistentHeap& heap(std::size_t i = 0) { return *heaps_.at(i); }

 protected:
  Status MakeHeap(Runtime& rt, PoolArena& arena, const WorkloadConfig& config,
                  int threads_for_pool) {
    HeapOptions ho;
    ho.mechanism = config.mechanism;
    ho.data_size = config.data_size;
    ho.threads = threads_for_pool;
    ho.ckpt_epoch_ops = config.ckpt_epoch_ops;
    auto heap = PersistentHeap::Create(rt, arena, ho);
    if (!heap.ok()) {
      return heap.status();
    }
    heaps_.push_back(std::move(*heap));
    return Status::Ok();
  }

  WorkloadConfig config_;
  std::vector<std::unique_ptr<PersistentHeap>> heaps_;
};

// Factory for the nine evaluated workloads: "btree", "rbtree", "skiplist",
// "hashmap", "pmemkv", "memcached", "redis", "tpcc", "tatp".
std::unique_ptr<Workload> CreateWorkload(const std::string& name);

// The evaluation's workload list, in the paper's order.
std::vector<std::string> EvaluatedWorkloads();

// One run under the evaluation's measurement protocol.
struct WorkloadRun {
  std::string workload;  // a CreateWorkload name
  WorkloadConfig config;
  std::uint64_t ops = 0;  // total operations across config.threads
  // Seeds the op stream; unset means config.seed * 31 + 1, the stream
  // every figure and tool but the PPO ablation uses.
  std::optional<std::uint64_t> op_seed;
};

// The one workload driver every figure and workload tool shares: creates
// the workload, runs Setup on `rt`, drains, runs `run.ops` operations
// round-robin over the threads, then drains every thread. The caller builds
// `rt` with its own options and attaches its own trace or sanitizer first,
// so setup is recorded whenever the caller records. Returns the stats at
// the end of setup, which the caller subtracts from rt.stats() to measure
// the ops alone, or a Status that names the stage that failed: NotFound for
// an unknown workload, else the failing setup's or op's own code.
StatusOr<RuntimeStats> DriveWorkload(Runtime& rt, const WorkloadRun& run);

// 64-byte application values (Table 4).
inline constexpr std::size_t kValueSize = 64;
struct Value64 {
  std::uint8_t bytes[kValueSize];
};

// Deterministic value derived from a key (lets Verify check payloads).
Value64 ValueForKey(std::uint64_t key);

}  // namespace nearpm

#endif  // SRC_WORKLOADS_WORKLOAD_H_
