// Device interleaving of the global PM address space.
//
// Following Section 7 of the paper, a set of NearPM devices is interleaved at
// a fixed stripe granularity: consecutive stripes of the global address space
// map to consecutive devices round-robin, and within one stripe the block is
// contiguous on one device (NearPM supports no scatter/gather). A persistent
// object larger than one stripe therefore spans multiple devices, which is
// exactly the situation PPO's multi-device synchronization exists for.
#ifndef SRC_PMEM_INTERLEAVE_H_
#define SRC_PMEM_INTERLEAVE_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace nearpm {

struct DeviceSlice {
  DeviceId device = 0;
  AddrRange global;  // the piece of the request in global address space
};

class InterleaveMap {
 public:
  // `num_devices` >= 1; `stripe` must be a power of two (default 4 KB, the
  // page granularity the paper's checkpointing/shadow paging operate at).
  InterleaveMap(int num_devices, std::uint64_t stripe = kPmPageSize);

  int num_devices() const { return num_devices_; }
  std::uint64_t stripe() const { return stripe_; }

  DeviceId DeviceOf(PmAddr addr) const;
  PmAddr LocalOffsetOf(PmAddr addr) const;

  // Splits a global range into per-device contiguous slices, in address
  // order, appended to `out` (reused across calls, so a split allocates
  // nothing once it has grown). Used by the memory-controller model to
  // duplicate a NearPM command to every device the operand touches.
  void Split(const AddrRange& range, std::vector<DeviceSlice>* out) const;

 private:
  int num_devices_;
  std::uint64_t stripe_;
};

}  // namespace nearpm

#endif  // SRC_PMEM_INTERLEAVE_H_
