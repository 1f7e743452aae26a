// NearPM command encoding (Table 2 of the paper) and the low-level work
// items a command decomposes into on each device.
#ifndef SRC_NDP_REQUEST_H_
#define SRC_NDP_REQUEST_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/sim/cost_model.h"

namespace nearpm {

enum class NearPmOp : std::uint8_t {
  kUndologCreate,   // generate metadata + copy old data to an undo log
  kApplyLog,        // copy a redo log to the original location
  kCommitLog,       // delete/commit all logs of a transaction
  kCkpointCreate,   // generate metadata + copy a page to the checkpoint area
  kShadowCpy,       // copy an existing page to a fresh shadow page
  kRawCopy,         // generic near-memory data movement (micro-benchmark)
};

// One command as posted on the memory-mapped command path.
struct NearPmRequest {
  std::uint64_t seq = 0;  // globally unique, assigned by the runtime
  NearPmOp op = NearPmOp::kRawCopy;
  PoolId pool = 0;
  ThreadId thread = 0;
  PmAddr addr = 0;        // operand pointer (old data / redo log / page)
  std::uint64_t size = 0;
  PmAddr dst = 0;         // destination (log slot / checkpoint slot / page)
  std::uint64_t tag = 0;  // transaction id / checkpoint epoch for metadata
};

// The primitive operations a NearPM unit performs for one request on one
// device: bulk copies through the DMA engine and small literal writes
// through the metadata generator / load-store unit. Items execute in order;
// PmSpace records them in order, so a crash can truncate the sequence at any
// prefix -- which is why validity metadata is always the *last* item.
struct NdpWorkItem {
  enum class Kind : std::uint8_t { kCopy, kLiteral };
  // A literal is a slot header (or a piece of one): at most one cache line,
  // so it lives inline and building a command allocates nothing.
  static constexpr std::size_t kMaxLiteral = 64;
  Kind kind = Kind::kCopy;
  PmAddr src = 0;  // kCopy only
  PmAddr dst = 0;
  std::uint64_t size = 0;  // bytes written at `dst`
  std::array<std::uint8_t, kMaxLiteral> literal{};  // kLiteral only

  // The bytes a literal writes.
  std::span<const std::uint8_t> literal_bytes() const {
    return {literal.data(), size};
  }
};

// Unit busy time for a sequence of work items under `cost`.
double NdpWorkNs(const CostModel& cost, const std::vector<NdpWorkItem>& work);

}  // namespace nearpm

#endif  // SRC_NDP_REQUEST_H_
