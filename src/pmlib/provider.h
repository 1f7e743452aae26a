// Crash-consistency mechanism interface.
//
// A provider turns the Table 2 primitives into one of the mechanisms of
// Table 1. PersistentHeap routes every application store through
// PrepareStore (which performs the mechanism's pre-update work and possibly
// redirects the write) and every load through TranslateLoad; CommitOp closes
// the operation. Recover() is the software half of failure recovery, run
// after the hardware recovery of Runtime::InjectCrash.
#ifndef SRC_PMLIB_PROVIDER_H_
#define SRC_PMLIB_PROVIDER_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/common/name_table.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace nearpm {

enum class Mechanism : std::uint8_t {
  kLogging,        // undo logging (the workloads' original mechanism)
  kRedoLogging,    // redo logging variant
  kCheckpointing,  // page-granularity, epoch-batched
  kShadowPaging,   // page-granularity copy-on-write with atomic switch
};

// The canonical names: "logging", "redo_logging", "checkpointing",
// "shadow_paging".
const NameTable<Mechanism>& MechanismNames();
const char* MechanismName(Mechanism m);
StatusOr<Mechanism> MechanismFromName(const std::string& name);

class ConsistencyProvider {
 public:
  virtual ~ConsistencyProvider() = default;

  virtual Mechanism mechanism() const = 0;

  // Starts one failure-atomic operation on thread `t`.
  virtual Status BeginOp(ThreadId t) = 0;

  // Declares that [addr, addr+size) (data-window address) is about to be
  // overwritten. Performs the mechanism's pre-update work (undo log /
  // checkpoint / shadow copy / redo redirect) and returns the address the
  // store must actually be issued to.
  virtual StatusOr<PmAddr> PrepareStore(ThreadId t, PmAddr addr,
                                        std::uint64_t size) = 0;

  // Translates a load of [addr, addr+size). Identity for in-place
  // mechanisms; redirected for redo logging (own uncommitted writes) and
  // shadow paging (page table).
  virtual StatusOr<PmAddr> TranslateLoad(ThreadId t, PmAddr addr,
                                         std::uint64_t size) = 0;

  // Ends the operation. `dirty` lists the (translated) ranges written since
  // BeginOp. Returns true when the mechanism reached a durable point --
  // per-operation for logging and shadow paging, per-epoch for
  // checkpointing -- at which deferred frees may be executed.
  virtual StatusOr<bool> CommitOp(ThreadId t,
                                  std::span<const AddrRange> dirty) = 0;

  // Software recovery after a failure: restores the data window to the last
  // durable point and clears mechanism state. Must be idempotent.
  virtual Status Recover() = 0;

  // Forgets volatile state without touching PM (used by tests to simulate
  // the process dying with the machine).
  virtual void DropVolatile() = 0;
};

}  // namespace nearpm

#endif  // SRC_PMLIB_PROVIDER_H_
