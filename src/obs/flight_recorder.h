// Always-on flight recorder: one fixed-budget ring over compacted trace
// events, shared by every recorder in a service.
//
// The per-track rings inside TraceRecorder answer "what did this resource
// do recently", but their budget is per (pid, tid): a quiet track keeps
// hours of history while the busiest track wraps in milliseconds, and a
// post-incident snapshot is only as old as the busiest ring allows
// (Snapshot() then trims every other track to match). The flight recorder
// is the complementary shape: a single ring over the *global* event stream,
// sized in events rather than per track, so the last N things the whole
// service did are always reconstructible -- the black box an SLO watchdog
// dumps at breach time.
//
// Records are compacted TraceEvents: the address ranges and arg1 are
// dropped (the black box answers "what happened when, for which request",
// not "which bytes"), which roughly halves the slot size. Each registered
// source (one per shard recorder, one for the fabric) tags its events, so
// a dump distinguishes shard 0's kServeBatch from shard 3's.
//
// Concurrency: recording is one relaxed ticket fetch_add plus per-field
// relaxed stores under a per-slot stamp (seqlock discipline: odd while the
// writer is inside, even = 2*(ticket+1) when published). Snapshot() skips
// slots whose stamp changes under it, so a reader running concurrently
// with writers -- the watchdog dumping mid-overload -- sees only whole
// records. The structure is best-effort by design: a writer stalled
// between claiming a ticket and publishing can hide that one slot from a
// concurrent snapshot, never corrupt it.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/trace/trace_event.h"

namespace nearpm {
namespace obs {

// Schema tag of the JSONL dump (header line + one record per line).
inline constexpr char kFlightSchema[] = "nearpm-flight-v1";

// One compacted event as read back out of the ring.
struct FlightRecord {
  std::uint64_t ticket = 0;  // global arrival order in the flight ring
  std::uint32_t source = 0;  // registered source id
  TracePhase phase = TracePhase::kCpuRead;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  SimTime ts = 0;
  SimTime dur = 0;
  std::uint64_t seq = 0;
  std::uint64_t arg0 = 0;
  std::uint32_t epoch = 0;
  std::uint64_t order = 0;  // source recorder's order (per-source monotonic)
  std::uint64_t trace = 0;  // originating request id (0 = none)
};

// A dump as read back: the header's source labels and alert, then every
// record line.
struct FlightDump {
  std::vector<std::string> sources;
  std::string alert_json;  // the header's alert object; empty when none
  std::vector<FlightRecord> records;
};

// Reads a dump WriteFlightDump (watchdog.h) wrote, through the strict JSON
// reader (src/common/json.h): the header must carry kFlightSchema, and in
// the header and every record an unknown, missing, wrong-kind or
// out-of-range key, or anything after the closing brace, is an error, as is
// a record naming an unlisted source. Errors name the line.
StatusOr<FlightDump> ReadFlightDump(std::istream& is);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Registers a named event source and returns the sink to attach to its
  // TraceRecorder (AttachSink). The pointer stays valid for this recorder's
  // lifetime. Call during setup, not concurrently with recording.
  TraceSink* RegisterSource(const std::string& label);

  // Appends one compacted event. Lock-free; safe from concurrent threads.
  void Record(std::uint32_t source, const TraceEvent& event);

  // Whole records currently retained, sorted by ticket (arrival order).
  // Safe to call concurrently with writers; torn slots are skipped.
  std::vector<FlightRecord> Snapshot() const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t accepted() const {
    return ticket_.load(std::memory_order_relaxed);
  }
  // Events overwritten by ring wrap (lower bound; torn slots excluded from
  // snapshots are not counted here).
  std::uint64_t dropped() const {
    const std::uint64_t a = accepted();
    return a > capacity_ ? a - capacity_ : 0;
  }
  const std::vector<std::string>& source_labels() const { return labels_; }

  // Serializes the retained records, one JSON object per line, oldest
  // first. The dump header (schema tag, alert context) is written by
  // WriteFlightDump in watchdog.h, which composes with this; ReadFlightDump
  // reads both back.
  void WriteRecords(std::ostream& os) const;

  // Forgets all retained records (setup/test helper; not thread-safe).
  void Clear();

 private:
  // Slot fields are individually relaxed atomics (not a plain struct under
  // the stamp) so concurrent snapshot reads stay race-free; the stamp alone
  // decides whether the field set is mutually consistent.
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  // 0 empty, odd writing,
                                          // even = 2 * (ticket + 1)
    std::atomic<std::uint32_t> source{0};
    std::atomic<std::uint32_t> phase{0};
    std::atomic<std::uint32_t> pid{0};
    std::atomic<std::uint32_t> tid{0};
    std::atomic<std::uint64_t> ts{0};
    std::atomic<std::uint64_t> dur{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> arg0{0};
    std::atomic<std::uint32_t> epoch{0};
    std::atomic<std::uint64_t> order{0};
    std::atomic<std::uint64_t> trace{0};
  };

  class SourceSink : public TraceSink {
   public:
    SourceSink(FlightRecorder* flight, std::uint32_t id)
        : flight_(flight), id_(id) {}
    void Consume(const TraceEvent& event) override {
      flight_->Record(id_, event);
    }

   private:
    FlightRecorder* flight_;
    std::uint32_t id_;
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> ticket_{0};
  std::vector<std::unique_ptr<SourceSink>> sources_;
  std::vector<std::string> labels_;
};

}  // namespace obs
}  // namespace nearpm

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
