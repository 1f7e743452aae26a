#include <memory>
#include <string>
#include <vector>

#include "src/workloads/bplustree.h"
#include "src/workloads/btree.h"
#include "src/workloads/hashmap.h"
#include "src/workloads/kvserver.h"
#include "src/workloads/rbtree.h"
#include "src/workloads/skiplist.h"
#include "src/workloads/tatp.h"
#include "src/workloads/tpcc.h"
#include "src/workloads/workload.h"

namespace nearpm {

std::unique_ptr<Workload> CreateWorkload(const std::string& name) {
  if (name == "btree") {
    return std::make_unique<BTreeWorkload>();
  }
  if (name == "rbtree") {
    return std::make_unique<RbTreeWorkload>();
  }
  if (name == "skiplist") {
    return std::make_unique<SkipListWorkload>();
  }
  if (name == "hashmap") {
    return std::make_unique<HashMapWorkload>();
  }
  if (name == "pmemkv") {
    return std::make_unique<BPlusTreeWorkload>();
  }
  if (name == "memcached") {
    return std::make_unique<KvServerWorkload>(/*shared_pool=*/false);
  }
  if (name == "redis") {
    return std::make_unique<KvServerWorkload>(/*shared_pool=*/true);
  }
  if (name == "tpcc") {
    return std::make_unique<TpccWorkload>();
  }
  if (name == "tatp") {
    return std::make_unique<TatpWorkload>();
  }
  return nullptr;
}

std::vector<std::string> EvaluatedWorkloads() {
  return {"tpcc",   "tatp",      "btree", "rbtree", "skiplist",
          "hashmap", "memcached", "redis", "pmemkv"};
}

StatusOr<RuntimeStats> DriveWorkload(Runtime& rt, const WorkloadRun& run) {
  const std::unique_ptr<Workload> workload = CreateWorkload(run.workload);
  if (workload == nullptr) {
    return NotFound("unknown workload " + run.workload);
  }
  PoolArena arena;
  Status st = workload->Setup(rt, arena, run.config);
  if (!st.ok()) {
    return Status(st.code(), "setup(" + run.workload + "): " + st.message());
  }
  rt.DrainDevices(0);
  RuntimeStats at_setup = rt.stats();

  const int threads = run.config.threads;
  Rng rng(run.op_seed.value_or(run.config.seed * 31 + 1));
  for (std::uint64_t i = 0; i < run.ops; ++i) {
    st = workload->RunOp(static_cast<ThreadId>(i % threads), rng);
    if (!st.ok()) {
      return Status(st.code(), "op " + std::to_string(i) + " (" +
                                   run.workload + "): " + st.message());
    }
  }
  for (int t = 0; t < threads; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }
  return at_setup;
}

}  // namespace nearpm
