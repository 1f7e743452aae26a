// Functional model of the persistent-memory address space.
//
// PmSpace answers the one question crash consistency is about: *which bytes
// are durable at the instant of a failure*. It tracks three classes of state:
//
//  * `current_` -- the bytes program execution observes (loads return these).
//    It starts as all zeros and is backed lazily: see the constructor.
//  * CPU pending lines -- stores the CPU has issued but not yet persisted
//    with clwb+fence. At a crash each pending line independently survives
//    (happened to be written back on its own) or is dropped, modeling a real
//    cache hierarchy losing volatile contents on power failure.
//  * NDP request records -- writes performed by NearPM units enter the
//    persistence domain as soon as they reach the media (the device has no
//    write cache, Section 5.3.1), but at the instant of failure a device may
//    not have executed everything the program issued: requests may still sit
//    in the FIFO, and a DMA copy may be half done. Each request's writes are
//    recorded (cacheline granularity, with pre-images) together with the
//    request's execution window on the device timeline. A crash at virtual
//    time T keeps a request that completed before T, truncates one whose DMA
//    was mid-flight at T (prefix of its line writes, proportional to the
//    elapsed fraction), and drops one that had not started. Two structural
//    rules are additionally enforced as repairs (they hold by construction
//    under PPO, and matter for the enforce_ppo=false ablation):
//
//      - requests serialized by the Dispatcher's in-flight access table can
//        only be durable if their predecessors are (dependency edges), and
//      - a cross-device synchronization marker (Invariant 3) forbids
//        anything after the marker being durable anywhere unless everything
//        before the marker is durable everywhere.
//
// The runtime *retires* a request once its completion is architecturally
// ordered before subsequent CPU execution (a conflict stall, a polled
// completion, a passed synchronization): retired requests are durable at any
// later crash and their pre-images are released.
//
// Host cost follows the bytes a command touches. Pre-images are inline
// 64-byte arrays. The per-line facts the crash repairs read -- the latest
// request guarding a line against eviction, and per device the last live
// request writing it -- sit in flat line tables of ceil(size/64) entries,
// allocated only with retain_crash_state and backed by MapZeroedArray, so
// only pages of stamped lines become resident. An entry holds a seq and the
// generation it was stamped in; Crash and Quiesce clear every table in O(1)
// by bumping the generation. Pending CPU lines stay in a hash map:
// Crash(Rng&) draws their fates in its iteration order.
#ifndef SRC_PMEM_PM_SPACE_H_
#define SRC_PMEM_PM_SPACE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/pages.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/pmem/interleave.h"
#include "src/trace/recorder.h"

namespace nearpm {

namespace analyze {
class PmSanitizer;
}  // namespace analyze

// Execution outcome of one NDP request on one device at the failure instant.
enum class CrashOutcome { kDropped, kPartial, kDurable };

struct CrashReport {
  std::uint64_t requests_dropped = 0;
  std::uint64_t requests_truncated = 0;
  std::uint64_t requests_durable = 0;
  std::uint64_t cpu_lines_dropped = 0;
  std::uint64_t cpu_lines_survived = 0;
  std::uint64_t forced_by_sync = 0;  // records force-durable by sync repair
  // The latest synchronization point all devices had reached: hardware
  // recovery replays in-flight requests up to (and only up to) this sync.
  std::uint64_t frontier_sync = 0;
  // Per device: request seq -> sampled outcome, for every request that was
  // still tracked (not yet compacted) at the failure.
  std::vector<std::unordered_map<std::uint64_t, CrashOutcome>> outcomes;
};

// Fully deterministic crash specification, the unit the crash fuzzer
// explores and replays. `crash_time` is the failure instant on the device
// timeline (clamped to "now" by the caller); `line_survival` decides, for
// every pending CPU cacheline in ascending address order, whether the line
// happened to be written back before the power failed. Lines beyond the
// vector's length are dropped, so an empty plan is "all caches lost".
struct CrashPlan {
  std::uint64_t crash_time = 0;
  std::vector<bool> line_survival;
};

struct PmSpaceOptions {
  std::uint64_t size = 64ull << 20;
  int num_devices = 2;
  std::uint64_t stripe = kPmPageSize;
  // When false, no crash bookkeeping is kept (fast path for benchmarks that
  // never inject failures).
  bool retain_crash_state = true;
  // Probability that a pending (un-persisted) CPU cacheline happens to have
  // been written back before the failure.
  double pending_line_survival = 0.5;
  // When false (the enforce_ppo=false ablation), CPU accesses do not retire
  // the NDP requests they observe -- modeling hardware without the ordering
  // guarantees of PPO, so crashes can produce the inconsistent images of
  // Section 2.3.
  bool enforce_observation = true;
  // Fault injection for the crash fuzzer's self-test: disables the
  // synchronization repair (Invariant 3), which is hardware recovery's
  // replay of the request FIFO up to the frontier, producing the broken
  // images a forgotten frontier replay would leave behind.
  bool skip_frontier_replay = false;
};

class PmSpace {
 public:
  // Throws std::bad_alloc when the media cannot be reserved.
  explicit PmSpace(const PmSpaceOptions& options);

  std::uint64_t size() const { return size_; }
  const InterleaveMap& interleave() const { return interleave_; }
  bool retain_crash_state() const { return options_.retain_crash_state; }

  // ---- CPU-side accesses (volatile until persisted).
  void CpuWrite(PmAddr addr, std::span<const std::uint8_t> data);
  // Non-const: a load that observes an NDP write retires that request.
  void CpuRead(PmAddr addr, std::span<std::uint8_t> out);
  // clwb+fence over [addr, addr+size): pending lines in range become durable.
  void CpuPersist(PmAddr addr, std::uint64_t size);
  // Number of pending lines overlapping the range (0 = range is durable).
  std::uint64_t PendingLinesIn(const AddrRange& range) const;

  // ---- NDP-side accesses. All writes of one request on one device must be
  // issued contiguously (no interleaving of request_seq values per device).
  // BeginNdpRequest declares the request's execution window on the device
  // timeline before its writes are applied (asserted with crash state on);
  // a zero window makes the request durable at any later crash.
  void BeginNdpRequest(DeviceId device, std::uint64_t request_seq,
                       std::uint64_t start_ns, std::uint64_t completion_ns);
  void NdpWrite(DeviceId device, std::uint64_t request_seq, PmAddr addr,
                std::span<const std::uint8_t> data);
  // NDP reads do not retire the last writer themselves; the device's
  // dispatcher orders conflicting requests and calls ObserveRange for the
  // read set explicitly before execution.
  void NdpRead(PmAddr addr, std::span<std::uint8_t> out) const {
    CheckRange(addr, out.size());
    std::memcpy(out.data(), current_.get() + addr, out.size());
  }

  // Declares that `request_seq` on `device` reads `range`. Guards crash
  // consistency against natural cache evictions: a CPU line that was never
  // explicitly persisted can only reach PM through the device's host queue,
  // which orders the write-back behind in-flight requests reading the line.
  // If such a line turns out durable at a crash, the guarding request must
  // have completed first.
  void GuardRange(DeviceId device, std::uint64_t request_seq,
                  const AddrRange& range);

  // Records a cross-device synchronization point (monotonically increasing
  // nonzero ids).
  void SyncMarker(std::uint64_t sync_id);

  // The request's completion is now ordered before future CPU execution;
  // it is durable at any later crash.
  void RetireRequest(DeviceId device, std::uint64_t request_seq);
  // An agent (CPU load/store, or a later NDP request's read) observed the
  // current contents of `range`: any live NDP request that last wrote a line
  // in the range is ordered before the observer and is retired. CpuRead and
  // CpuWrite apply this implicitly.
  void ObserveRange(const AddrRange& range);
  // The synchronization `sync_id` is known complete: everything issued
  // before it, on every device, is durable.
  void RetireThroughSync(std::uint64_t sync_id);

  // ---- Failure.
  // Collapses state to the durable image of a power failure at virtual time
  // `crash_time` per the rules above (rng resolves CPU pending lines). After
  // the call `current_` equals the durable image and all bookkeeping is
  // empty.
  CrashReport Crash(Rng& rng, std::uint64_t crash_time);
  // Deterministic variant: pending-line survival comes from the plan's mask
  // instead of coin flips, so a crash state can be re-created exactly.
  CrashReport Crash(const CrashPlan& plan);

  // Pending CPU line base addresses in ascending order -- the rank order
  // CrashPlan::line_survival indexes.
  std::vector<PmAddr> PendingLineAddrs() const;

  // Clean shutdown / quiesce: everything recorded is durable.
  void Quiesce();

  // Bookkeeping introspection for tests.
  std::uint64_t pending_line_count() const { return pending_.size(); }
  std::uint64_t live_request_count(DeviceId device) const;

  // Attaches (or detaches, with nullptr) the event recorder; Crash() then
  // stamps each tracked request's sampled outcome into the trace.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Attaches (or detaches) the PM-Sanitizer; retire/sync bookkeeping is then
  // mirrored into its per-device clocks. Requires retain_crash_state=true
  // (enforced by Runtime::AttachSanitizer, which also wires the devices).
  void set_sanitizer(analyze::PmSanitizer* san) { san_ = san; }

 private:
  // A line's durable pre-image: the first `len` bytes (one write event),
  // or the whole line (a pending CPU line).
  using LineBytes = std::array<std::uint8_t, kCacheLineSize>;
  struct LineEvent {
    PmAddr addr = 0;
    std::uint8_t len = 0;
    LineBytes old_bytes;
  };
  // One seq per cache line of the space, valid only in the generation it
  // was stamped in.
  struct LineSeq {
    std::uint64_t generation = 0;
    std::uint64_t seq = 0;
  };
  using LineTable = ZeroedPages<LineSeq>;
  struct RequestRecord {
    std::uint64_t seq = 0;
    std::uint64_t after_sync = 0;  // latest sync id issued before this request
    std::uint64_t start_ns = 0;     // execution window on the device timeline
    std::uint64_t completion_ns = 0;
    bool retired = false;
    std::vector<LineEvent> lines;
    std::vector<std::uint64_t> deps;  // conflicting same-device predecessors
  };
  struct DeviceLog {
    std::deque<RequestRecord> records;
    // Absolute position of records.front(); retired prefixes are compacted
    // away, so positions stay stable as the deque shrinks from the front.
    std::size_t base = 0;
    // seq -> absolute position
    std::unordered_map<std::uint64_t, std::size_t> by_seq;
    // Per line: seq of the last live request writing it (dependency
    // tracking), and how many lines hold one.
    LineTable last_writer;
    std::size_t last_writer_lines = 0;
    // (sync_id, absolute record position at marker time)
    std::vector<std::pair<std::uint64_t, std::size_t>> sync_positions;
  };

  // Shared crash core; `survive` answers whether a given pending line was
  // written back before the failure (called once per line).
  template <typename SurviveFn>
  CrashReport CrashWith(std::uint64_t crash_time, SurviveFn&& survive);

  void CheckRange(PmAddr addr, std::uint64_t len) const;
  // `table`'s entry for `line` when it holds one in this generation.
  LineSeq* Find(LineTable& table, PmAddr line) {
    LineSeq& entry = table[line / kCacheLineSize];
    return entry.generation == generation_ ? &entry : nullptr;
  }
  void Stamp(LineTable& table, PmAddr line, std::uint64_t seq) {
    table[line / kCacheLineSize] = LineSeq{generation_, seq};
  }
  void SnapshotPendingLine(PmAddr line_base);
  void RetireRecord(DeviceLog& log, RequestRecord& rec);
  void CompactLogs();
  // Empties every device log and line table (a crash or Quiesce).
  void ClearLogs();

  PmSpaceOptions options_;
  InterleaveMap interleave_;
  // Lazily backed: the resident size follows the PM actually touched.
  ZeroedPages<std::uint8_t> current_;
  std::uint64_t size_ = 0;
  // line base address -> durable pre-image of the 64-byte line. A hash map,
  // not a line table: Crash(Rng&) draws each line's fate in its iteration
  // order, so seeded crash states depend on it.
  std::unordered_map<PmAddr, LineBytes> pending_;
  // Per line: seq of the latest request that guarded it (eviction ordering).
  LineTable read_guards_;
  // Line-table entries stamped with an older generation are empty: a crash
  // or Quiesce clears every table by bumping it. Starts at 1, so the zero
  // pages of a fresh table hold nothing.
  std::uint64_t generation_ = 1;
  std::vector<DeviceLog> device_logs_;
  std::uint64_t last_sync_id_ = 0;
  TraceRecorder* trace_ = nullptr;
  analyze::PmSanitizer* san_ = nullptr;
};

}  // namespace nearpm

#endif  // SRC_PMEM_PM_SPACE_H_
