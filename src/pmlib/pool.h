// PM pool: the libpmemobj-style container all pmlib state lives in.
//
// A pool is one contiguous region of the global PM space, carved into:
//
//   [ pool header | allocator chunk headers | data window
//     | physical page area (shadow paging only) | per-thread CC areas ]
//
// The data window is what applications address. Under logging and
// checkpointing it is backed one-to-one; under shadow paging it is a virtual
// window whose pages map to the physical page area through the shadow page
// table. The CC areas are the NDP-managed log/checkpoint regions described in
// src/core/log_layout.h.
#ifndef SRC_PMLIB_POOL_H_
#define SRC_PMLIB_POOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/log_layout.h"
#include "src/core/runtime.h"

namespace nearpm {

struct PoolLayoutOptions {
  std::uint64_t data_size = 4ull << 20;  // size of the data window
  int threads = 1;
  bool shadow_physical_area = false;  // reserve 2x pages for shadow paging
};

class PmPool {
 public:
  // Carves the pool at [base, base + Footprint(opts)) and registers it with
  // the runtime. The caller owns placement (see PoolArena in heap.h).
  static StatusOr<PmPool> Create(Runtime& rt, PmAddr base,
                                 const PoolLayoutOptions& opts);

  static std::uint64_t Footprint(const PoolLayoutOptions& opts);

  PoolId id() const { return id_; }
  Runtime& rt() const { return *rt_; }
  const PoolLayoutOptions& layout() const { return opts_; }

  PmAddr base() const { return base_; }
  // Allocator chunk header array.
  PmAddr chunk_headers() const { return base_ + kPmPageSize; }
  std::uint64_t num_chunks() const { return opts_.data_size / kPmPageSize; }
  // Application-visible data window.
  PmAddr data_base() const;
  std::uint64_t data_size() const { return opts_.data_size; }
  // Physical page area for shadow paging (2x the window's page count).
  PmAddr phys_base() const;
  std::uint64_t phys_pages() const {
    return opts_.shadow_physical_area ? 2 * num_chunks() : 0;
  }
  // Shadow page table (persistent): one 8-byte entry per window page.
  PmAddr page_table() const;
  // Per-thread crash-consistency area.
  CcArea cc_area(ThreadId t) const;

  // Stores thread `t`'s transaction record (state, tx id) and persists it.
  void WriteTxRecord(ThreadId t, TxState state, std::uint64_t tx_id) const;

  // The software recovery scan of one thread's undo, redo or checkpoint
  // log: visits the `count` slots from `first` (newest first when
  // `newest_first`). A slot whose header carries `magic` is restored onto
  // its target when its size is in (0, kMaxLogData], its payload matches
  // its checksum and its tag equals `restore_tag`, and is scrubbed either
  // way. Returns the number of slots restored.
  std::size_t RecoverSlots(ThreadId t, PmAddr first, std::size_t count,
                           std::uint64_t magic,
                           std::optional<std::uint64_t> restore_tag,
                           bool newest_first = false) const;

 private:
  PmPool(Runtime* rt, PmAddr base, PoolId id, const PoolLayoutOptions& opts)
      : rt_(rt), base_(base), id_(id), opts_(opts) {}

  Runtime* rt_;
  PmAddr base_ = 0;
  PoolId id_ = 0;
  PoolLayoutOptions opts_;
};

}  // namespace nearpm

#endif  // SRC_PMLIB_POOL_H_
