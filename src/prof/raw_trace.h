// Raw trace serialization: a lossless JSONL form of the TraceEvent stream.
//
// The Chrome-trace export is lossy (microsecond rendering, per-viewer field
// mapping), so profiling tools that re-analyze a captured run need their own
// format. One event per line, every field present, fixed key order, so the
// files are byte-stable for a deterministic run. The reader goes through
// the strict JSON reader (src/common/json.h): an unknown, missing,
// wrong-kind or out-of-range key, or anything after the closing brace, is
// an error.
#ifndef SRC_PROF_RAW_TRACE_H_
#define SRC_PROF_RAW_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/trace/trace_event.h"

namespace nearpm {

void WriteRawTrace(const std::vector<TraceEvent>& events, std::ostream& os);

// Parses a stream written by WriteRawTrace. Returns false (and says why in
// `error` when non-null) on the first malformed line; `out` then holds the
// events parsed so far.
bool ReadRawTrace(std::istream& is, std::vector<TraceEvent>* out,
                  std::string* error = nullptr);

}  // namespace nearpm

#endif  // SRC_PROF_RAW_TRACE_H_
