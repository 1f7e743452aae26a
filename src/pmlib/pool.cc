#include "src/pmlib/pool.h"

#include <vector>

namespace nearpm {
namespace {

std::uint64_t ChunkHeaderBytes(const PoolLayoutOptions& opts) {
  return AlignUp((opts.data_size / kPmPageSize) * 64, kPmPageSize);
}

std::uint64_t PageTableBytes(const PoolLayoutOptions& opts) {
  return AlignUp((opts.data_size / kPmPageSize) * 8, kPmPageSize);
}

}  // namespace

std::uint64_t PmPool::Footprint(const PoolLayoutOptions& opts) {
  std::uint64_t bytes = kPmPageSize;  // pool header
  bytes += ChunkHeaderBytes(opts);
  bytes += PageTableBytes(opts);
  bytes += opts.data_size;  // data window
  if (opts.shadow_physical_area) {
    bytes += 2 * opts.data_size;  // physical pages
  }
  bytes += static_cast<std::uint64_t>(opts.threads) * CcArea::kSize;
  return AlignUp(bytes, kPmPageSize);
}

StatusOr<PmPool> PmPool::Create(Runtime& rt, PmAddr base,
                                const PoolLayoutOptions& opts) {
  if (opts.data_size == 0 || opts.data_size % kPmPageSize != 0) {
    return InvalidArgument("data_size must be a nonzero multiple of 4 kB");
  }
  if (base % kPmPageSize != 0) {
    return InvalidArgument("pool base must be page aligned");
  }
  if (opts.threads < 1 || opts.threads > rt.options().max_threads) {
    return InvalidArgument("thread count out of range");
  }
  auto id = rt.RegisterPool(base, Footprint(opts));
  if (!id.ok()) {
    return id.status();
  }
  return PmPool(&rt, base, *id, opts);
}

PmAddr PmPool::data_base() const {
  return base_ + kPmPageSize + ChunkHeaderBytes(opts_) + PageTableBytes(opts_);
}

PmAddr PmPool::phys_base() const { return data_base() + opts_.data_size; }

PmAddr PmPool::page_table() const {
  return base_ + kPmPageSize + ChunkHeaderBytes(opts_);
}

CcArea PmPool::cc_area(ThreadId t) const {
  const PmAddr cc_base = opts_.shadow_physical_area
                             ? phys_base() + 2 * opts_.data_size
                             : data_base() + opts_.data_size;
  return CcArea(cc_base + static_cast<std::uint64_t>(t) * CcArea::kSize);
}

void PmPool::WriteTxRecord(ThreadId t, TxState state,
                           std::uint64_t tx_id) const {
  TxRecord rec;
  rec.state = static_cast<std::uint64_t>(state);
  rec.tx_id = tx_id;
  const PmAddr addr = cc_area(t).TxRecordAddr();
  rt_->Store(t, addr, rec);
  rt_->Persist(t, addr, sizeof(rec));
}

std::size_t PmPool::RecoverSlots(ThreadId t, PmAddr first, std::size_t count,
                                 std::uint64_t magic,
                                 std::optional<std::uint64_t> restore_tag,
                                 bool newest_first) const {
  std::vector<std::uint8_t> payload;
  std::size_t restored = 0;
  for (std::size_t n = 0; n < count; ++n) {
    const std::size_t i = newest_first ? count - 1 - n : n;
    const PmAddr slot = first + i * kSlotSize;
    const SlotHeader header = rt_->Load<SlotHeader>(t, slot);
    if (header.magic != magic) {
      continue;
    }
    bool valid = header.size > 0 && header.size <= kMaxLogData;
    if (valid) {
      payload.resize(header.size);
      rt_->Read(t, CcArea::SlotData(slot), payload);
      valid = Checksum64(payload) == header.checksum;
    }
    if (valid && header.tag == restore_tag) {
      rt_->Write(t, header.target, payload);
      rt_->Persist(t, header.target, header.size);
      ++restored;
    }
    // Scrub the slot either way: it belongs to a finished, rolled-back or
    // torn transaction or epoch.
    const SlotHeader zero;
    rt_->Store(t, slot, zero);
    rt_->Persist(t, slot, sizeof(zero));
  }
  return restored;
}

}  // namespace nearpm
