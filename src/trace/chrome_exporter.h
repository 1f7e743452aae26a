// Chrome trace-event JSON exporter (the format Perfetto and about://tracing
// load). One track per simulated resource: host CPU threads, the PCIe link,
// each NearPM device's dispatcher / units / maintenance engine, and the
// multi-device synchronization lane.
//
// Virtual clocks restart from zero at a crash (and when several Runtimes
// share one recorder), so each trace epoch is laid out after the previous
// one on the exported timeline with a visible 10 us gap, keeping Perfetto's
// view monotonic while preserving in-epoch timing exactly.
#ifndef SRC_TRACE_CHROME_EXPORTER_H_
#define SRC_TRACE_CHROME_EXPORTER_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/trace/recorder.h"
#include "src/trace/trace_event.h"

namespace nearpm {

// Writes the full JSON object {"traceEvents": [...], ...} for the events.
void WriteChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os);
void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& os);

// Convenience: export straight to a file. Returns false on I/O failure.
bool WriteChromeTraceFile(const TraceRecorder& recorder,
                          const std::string& path);

// Human-readable names used for the metadata events (exposed for tests).
std::string TraceProcessName(std::uint32_t pid);
std::string TraceThreadName(std::uint32_t pid, std::uint32_t tid);

}  // namespace nearpm

#endif  // SRC_TRACE_CHROME_EXPORTER_H_
