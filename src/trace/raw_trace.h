// Raw trace serialization: a lossless JSONL form of the TraceEvent stream.
//
// The Chrome-trace export is lossy (microsecond rendering, per-viewer field
// mapping), so tools that re-analyze a captured run need their own format.
// One event per line, every field present, fixed key order, so the files
// are byte-stable for a deterministic run. The same line with a leading
// "source" key is a flight-dump record (src/obs/flight_recorder.h), so a
// breach dump carries whole events and both read back through one reader.
// It goes through the strict JSON reader (src/common/json.h): an unknown,
// missing, wrong-kind or out-of-range key, or anything after the closing
// brace, is an error.
#ifndef SRC_TRACE_RAW_TRACE_H_
#define SRC_TRACE_RAW_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/trace/trace_event.h"

namespace nearpm {

// Writes one event line, newline included. With `source` set the line
// leads with "source" (a flight-dump record).
void WriteEventLine(std::ostream& os, const TraceEvent& event,
                    std::optional<std::uint32_t> source = std::nullopt);

// Parses one line WriteEventLine wrote. With `source` non-null the line
// must carry "source", read into it; without, it must not. A line without
// "trace" (written before request-scoped tracing) loads with trace = 0.
Status ReadEventLine(std::string_view line, TraceEvent* event,
                     std::uint32_t* source = nullptr);

void WriteRawTrace(const std::vector<TraceEvent>& events, std::ostream& os);

// Parses a stream written by WriteRawTrace. Returns false (and says why in
// `error` when non-null) on the first malformed line; `out` then holds the
// events parsed so far.
bool ReadRawTrace(std::istream& is, std::vector<TraceEvent>* out,
                  std::string* error = nullptr);

// The raw trace in file `path`: NotFound when the file cannot be opened,
// InvalidArgument naming the file and its first malformed line.
StatusOr<std::vector<TraceEvent>> ReadRawTraceFile(const std::string& path);

}  // namespace nearpm

#endif  // SRC_TRACE_RAW_TRACE_H_
