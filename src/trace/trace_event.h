// Structured event vocabulary of the simulated platform.
//
// Every observable step of a request's life -- FIFO enqueue, dispatcher
// decode/translate, conflict-check stall, unit execution, DMA -- and every
// CPU-side ordering action -- persist, fence, stall -- is one TraceEvent on
// the timeline of the resource that performed it. The same stream feeds
// three consumers: the MetricsRegistry (per-phase counters and latency
// histograms), the Chrome-trace exporter (one Perfetto track per resource)
// and the PpoChecker (replay-based assertion of the Section 4 invariants).
//
// Layering: this header depends only on src/common and src/sim so that every
// layer above (pmem, ndp, core, pmlib) can record events.
#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstdint>

#include "src/common/name_table.h"
#include "src/common/types.h"
#include "src/sim/cost_model.h"

namespace nearpm {

// What happened. Span phases carry a duration; instant phases have dur == 0.
enum class TracePhase : std::uint8_t {
  // ---- CPU-side PM interface (host track, one tid per application thread).
  kCpuRead = 0,   // instant: architectural load (post Invariant-1 stall)
  kCpuWrite,      // instant: store into the cache hierarchy
  kCpuPersist,    // span: clwb per line + drain over a range
  kCpuFence,      // instant: bare sfence
  kCpuStall,      // span: thread stalled behind conflicting NDP work
  kCpuDrain,      // span: explicit drain of all devices
  // ---- Command path (PCIe link track, dispatcher track).
  kCmdPost,       // span: MMIO post, incl. Request-FIFO backpressure
  kFifoEnqueue,   // instant: request entered the Request FIFO
  kDevPipeline,   // span: decode + translate + conflict check (Fig. 8 1a-5a)
  kConflictStall, // span: buffered behind a conflicting in-flight request
  // ---- Execution (one track per NearPM unit, one for the maintenance
  // engine of the Multi-device handler).
  kUnitExec,      // span: metadata generation + load/store + DMA on a unit
  kDeferredExec,  // span: maintenance-path work (deferred log deletion)
  // ---- Ordering lifecycle.
  kRetire,            // instant: request architecturally ordered (durable)
  kWritebackAccepted, // instant: clwb accepted into the host r/w queue
  kSyncMarker,        // instant: cross-device synchronization issued
  kSyncComplete,      // instant: synchronization reached on every device
  kSwSyncPoll,        // span: CPU polling completion status (SW-sync mode)
  // ---- Failure and recovery.
  kCrash,          // instant: power failure (arg0 = frontier sync id)
  kCrashOutcome,   // instant: per-request sampled outcome (arg0 = outcome)
  kRecoveryReplay, // instant: hardware recovery re-executed a request (no
                   // in-tree producer; read from trace files)
  // ---- Mechanism level (pmlib providers).
  kOpBegin,     // instant: failure-atomic operation opened (seq = tx id)
  kOpCommit,    // instant: operation committed
  kMechRecover, // instant: software recovery pass of a provider
  // ---- Serving layer (src/serve, one serve track per shard).
  kServeEnqueue, // instant: request admitted to a shard queue (arg0 = depth)
  kServeReject,  // instant: request rejected by admission control
  kServeBatch,   // span: one worker batch against a shard (arg0 = batch size)
  kServeRequest, // span: one request executing inside a batch
  kServeTxn,     // span: cross-shard MultiPut (intent, apply, sync, retire)
  // ---- Counter samples (arg0 = sampled value). Rendered as Chrome counter
  // tracks by the exporter, folded into occupancy statistics by the
  // profiler, and mirrored into a registry gauge by the recorder.
  kFifoDepth,       // Request-FIFO occupancy after an enqueue
  kInflightDepth,   // In-flight Access Table population after an insert
  kServeQueueDepth, // shard queue backlog at batch pickup
  // ---- Coherence (appended; values above are a stable external contract).
  kCoherenceWb,     // instant: write-back guard persisted pending CPU lines
                    // ahead of an NDP command (Section 4 coherence handler)
  // ---- Replication fabric (src/net + src/repl; appended for the same
  // stable-contract reason).
  kNetXfer,      // span: one framed message occupying a directed link
                 // (seq = message seq, arg0 = MsgKind, arg1 = payload bytes)
  kNetDeliver,   // instant: message handed to the destination node
  kReplDoorbell, // instant: one-sided redo doorbell rung on a backup
                 // (range = redo record; NPM007 audits persistence)
  // ---- Pipelined NDP units (src/hwmodel geometry; appended for the same
  // stable-contract reason). Only emitted when the configured pipeline is
  // enabled, so default-geometry traces are byte-identical to the seed.
  kPipeStage, // span: one pipeline stage's residency on a unit
              // (arg0 = PipeStage, nested inside the request's kUnitExec)
  kLsqDepth,  // counter: unit in-flight (LSQ) population after a dispatch
  // ---- Live observability (src/obs; appended for the same stable-contract
  // reason).
  kSloAlert,  // instant: SLO watchdog breach (seq = alert id, arg0 = rule
              // index, arg1 = observed value in the rule's unit)
  kCount,
};

// arg0 of a kPipeStage span.
enum class PipeStage : std::uint8_t { kDispatch = 0, kExecute, kWriteback };
const char* PipeStageName(PipeStage stage);

// Every phase's name, listed once: TracePhaseName prints through it and the
// trace readers parse through it.
const NameTable<TracePhase>& TracePhaseNames();
const char* TracePhaseName(TracePhase phase);
// True for the counter-sample phases above: instants whose arg0 is a
// sampled series value rather than a phase-specific annotation.
bool TracePhaseIsCounter(TracePhase phase);

// Track addressing: Chrome trace events live on a (pid, tid) pair; we give
// every simulated resource its own pair so Perfetto renders one lane each.
inline constexpr std::uint32_t kTraceHostPid = 1;      // tid = ThreadId
inline constexpr std::uint32_t kTracePciePid = 2;      // tid = 0, the link
inline constexpr std::uint32_t kTraceSyncPid = 3;      // tid = 0, MD sync
inline constexpr std::uint32_t kTraceServePid = 4;     // tid = worker index
inline constexpr std::uint32_t kTraceNetPid = 5;       // tid = link index
inline constexpr std::uint32_t kTraceReplPid = 6;      // tid = node index
inline constexpr std::uint32_t kTraceObsPid = 7;       // tid = 0, watchdog
inline constexpr std::uint32_t kTraceDevicePidBase = 16;  // + DeviceId
// Tids inside a device pid.
inline constexpr std::uint32_t kTraceDispatcherTid = 0;
inline constexpr std::uint32_t kTraceUnitTidBase = 1;  // + unit index
inline constexpr std::uint32_t kTraceMaintenanceTid = 98;

inline constexpr std::uint32_t TraceDevicePid(DeviceId d) {
  return kTraceDevicePidBase + static_cast<std::uint32_t>(d);
}

// One recorded event. `epoch` separates runs of the virtual clocks: crash
// recovery (and each fresh Runtime sharing a recorder) restarts simulated
// time from zero, so timestamps only order events within one epoch. `order`
// is the global record sequence -- the real issue order of the program --
// which stays monotonic across clock resets; the PpoChecker uses it for
// every "issued before" relation. `trace` ties an event to one end-to-end
// request: ids are allocated at service entry and either stamped explicitly
// (fabric messages carry them across nodes) or inherited from the
// recorder's active trace scope; 0 means "not request-scoped".
struct TraceEvent {
  TracePhase phase = TracePhase::kCpuRead;
  std::uint32_t pid = kTraceHostPid;
  std::uint32_t tid = 0;
  SimTime ts = 0;
  SimTime dur = 0;            // 0 = instant
  std::uint64_t seq = 0;      // request seq / sync id / tx id (0 = none)
  AddrRange range{};          // primary range (write set for requests)
  AddrRange range2{};         // secondary range (read set for requests)
  std::uint64_t arg0 = 0;     // phase-specific (opcode, outcome, frontier...)
  std::uint64_t arg1 = 0;     // phase-specific (post time for exec spans)
  std::uint32_t epoch = 0;    // filled by the recorder
  std::uint64_t order = 0;    // filled by the recorder
  std::uint64_t trace = 0;    // request trace id (0 = none; filled from the
                              // recorder's active scope when unset)

  SimTime end() const { return ts + dur; }
  bool is_span() const { return dur > 0; }
};

}  // namespace nearpm

#endif  // SRC_TRACE_TRACE_EVENT_H_
