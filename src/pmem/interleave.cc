#include "src/pmem/interleave.h"

#include <cassert>

namespace nearpm {

InterleaveMap::InterleaveMap(int num_devices, std::uint64_t stripe)
    : num_devices_(num_devices), stripe_(stripe) {
  assert(num_devices_ >= 1);
  assert(stripe_ > 0 && (stripe_ & (stripe_ - 1)) == 0);
}

DeviceId InterleaveMap::DeviceOf(PmAddr addr) const {
  return static_cast<DeviceId>((addr / stripe_) %
                               static_cast<std::uint64_t>(num_devices_));
}

PmAddr InterleaveMap::LocalOffsetOf(PmAddr addr) const {
  const std::uint64_t stripe_index = addr / stripe_;
  const std::uint64_t local_stripe =
      stripe_index / static_cast<std::uint64_t>(num_devices_);
  return local_stripe * stripe_ + (addr % stripe_);
}

std::vector<DeviceSlice> InterleaveMap::Split(const AddrRange& range) const {
  std::vector<DeviceSlice> out;
  if (range.empty()) {
    return out;
  }
  PmAddr cur = range.begin;
  while (cur < range.end) {
    const PmAddr stripe_end = AlignDown(cur, stripe_) + stripe_;
    const PmAddr piece_end = stripe_end < range.end ? stripe_end : range.end;
    out.push_back(DeviceSlice{
        .device = DeviceOf(cur),
        .global = AddrRange{cur, piece_end},
    });
    cur = piece_end;
  }
  return out;
}

}  // namespace nearpm
