// Always-on flight recorder: a labeled view over a service's trace
// recorders -- every node's, then the fabric's -- that the SLO watchdog
// dumps at breach time, so "open the dump" replaces "rerun and bisect".
//
// It keeps no events of its own. Each recorder already holds its newest
// events in one stamped ring that any thread can read without the writer's
// lock (src/trace/recorder.h), so the black box is each source's newest
// kEventsPerSource events, read on demand: the memory the PPO audit reads,
// whole events (ranges and arg1 included), each source a suffix of its
// own record stream.
//
// A dump is JSONL: a header line (schema tag, per-source budget, events
// accepted, source labels and, at a breach, the alert; WriteFlightDump in
// watchdog.h), then each source's events in record order, one raw-trace
// line per event with a leading "source" index (src/trace/raw_trace.h).
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/trace/recorder.h"

namespace nearpm {
namespace obs {

// Schema tag of the JSONL dump.
inline constexpr char kFlightSchema[] = "nearpm-flight-v2";

// A dump as read back: each listed source with its events, and the
// header's alert object (empty when none).
struct FlightDump {
  std::vector<TimelineSource> sources;
  std::string alert_json;
};

// Reads a dump WriteFlightDump (watchdog.h) wrote, through the strict JSON
// reader (src/common/json.h): the header must carry kFlightSchema, and in
// the header and every record an unknown, missing, wrong-kind or
// out-of-range key, or anything after the closing brace, is an error, as is
// a record naming an unlisted source. Errors name the line.
StatusOr<FlightDump> ReadFlightDump(std::istream& is);

class FlightRecorder {
 public:
  // Events a dump keeps per source: the newest its recorder retains.
  static constexpr std::size_t kEventsPerSource = 4096;

  // Adds a labeled source. The recorder must outlive this view. Call during
  // setup, not concurrently with a read.
  void AddSource(std::string label, const TraceRecorder* recorder);

  // Each source's newest min(per_source, its ring) events in record order.
  // Safe to call while the recorders record.
  std::vector<TimelineSource> Snapshot(
      std::size_t per_source = kEventsPerSource) const;

  // Events the sources have recorded so far.
  std::uint64_t accepted() const;
  const std::vector<std::string>& source_labels() const { return labels_; }

  // Serializes Snapshot(), one record line per event. The dump header is
  // written by WriteFlightDump in watchdog.h, which composes with this;
  // ReadFlightDump reads both back.
  void WriteRecords(std::ostream& os) const;

 private:
  std::vector<std::string> labels_;
  std::vector<const TraceRecorder*> recorders_;  // parallel to labels_
};

}  // namespace obs
}  // namespace nearpm

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
