#include "src/trace/chrome_exporter.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

namespace nearpm {

namespace {

// Gap inserted between epochs on the exported timeline (ns).
constexpr std::uint64_t kEpochGapNs = 10000;

// Category string, used by trace viewers for filtering.
const char* PhaseCategory(TracePhase phase) {
  switch (phase) {
    case TracePhase::kCpuRead:
    case TracePhase::kCpuWrite:
    case TracePhase::kCpuPersist:
    case TracePhase::kCpuFence:
    case TracePhase::kCpuStall:
    case TracePhase::kCpuDrain:
      return "cpu";
    case TracePhase::kCmdPost:
    case TracePhase::kFifoEnqueue:
    case TracePhase::kDevPipeline:
    case TracePhase::kConflictStall:
      return "cmd";
    case TracePhase::kUnitExec:
    case TracePhase::kDeferredExec:
      return "exec";
    case TracePhase::kRetire:
    case TracePhase::kWritebackAccepted:
    case TracePhase::kSyncMarker:
    case TracePhase::kSyncComplete:
    case TracePhase::kSwSyncPoll:
      return "ordering";
    case TracePhase::kCrash:
    case TracePhase::kCrashOutcome:
    case TracePhase::kRecoveryReplay:
      return "failure";
    case TracePhase::kOpBegin:
    case TracePhase::kOpCommit:
    case TracePhase::kMechRecover:
      return "mechanism";
    case TracePhase::kServeEnqueue:
    case TracePhase::kServeReject:
    case TracePhase::kServeBatch:
    case TracePhase::kServeRequest:
    case TracePhase::kServeTxn:
      return "serve";
    case TracePhase::kFifoDepth:
    case TracePhase::kInflightDepth:
    case TracePhase::kServeQueueDepth:
      return "counter";
    case TracePhase::kCoherenceWb:
      return "cpu";
    case TracePhase::kNetXfer:
    case TracePhase::kNetDeliver:
      return "net";
    case TracePhase::kReplDoorbell:
      return "repl";
    case TracePhase::kPipeStage:
      return "exec";
    case TracePhase::kLsqDepth:
      return "counter";
    case TracePhase::kSloAlert:
      return "obs";
    case TracePhase::kCount:
      break;
  }
  return "?";
}

// Chrome timestamps are microseconds; keep nanosecond precision as
// fractional microseconds.
void AppendMicros(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

void AppendU64(std::string& out, const char* key, std::uint64_t v,
               bool* first) {
  if (!*first) out += ", ";
  *first = false;
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(v);
}

}  // namespace

std::string TraceProcessName(std::uint32_t pid) {
  if (pid == kTraceHostPid) return "host CPU";
  if (pid == kTracePciePid) return "PCIe link";
  if (pid == kTraceSyncPid) return "multi-device sync";
  if (pid == kTraceServePid) return "serve front end";
  if (pid == kTraceNetPid) return "network fabric";
  if (pid == kTraceReplPid) return "replication";
  if (pid >= kTraceDevicePidBase) {
    return "NearPM device " + std::to_string(pid - kTraceDevicePidBase);
  }
  return "pid " + std::to_string(pid);
}

std::string TraceThreadName(std::uint32_t pid, std::uint32_t tid) {
  if (pid == kTraceHostPid) return "cpu thread " + std::to_string(tid);
  if (pid == kTracePciePid) return "link";
  if (pid == kTraceSyncPid) return "sync machine";
  if (pid == kTraceServePid) return "serve worker " + std::to_string(tid);
  if (pid == kTraceNetPid) return "link " + std::to_string(tid);
  if (pid == kTraceReplPid) return "node " + std::to_string(tid);
  if (pid >= kTraceDevicePidBase) {
    if (tid == kTraceDispatcherTid) return "dispatcher";
    if (tid == kTraceMaintenanceTid) return "maintenance engine";
    return "unit " + std::to_string(tid - kTraceUnitTidBase);
  }
  return "tid " + std::to_string(tid);
}

void WriteChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os) {
  // Lay epochs out back to back: epoch k starts after the latest end time of
  // all earlier epochs plus a gap.
  std::map<std::uint32_t, std::uint64_t> epoch_end;
  for (const TraceEvent& e : events) {
    std::uint64_t& end = epoch_end[e.epoch];
    end = std::max(end, e.end());
  }
  std::map<std::uint32_t, std::uint64_t> epoch_offset;
  std::uint64_t cursor = 0;
  for (const auto& [epoch, end] : epoch_end) {
    epoch_offset[epoch] = cursor;
    cursor += end + kEpochGapNs;
  }

  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first_event = true;
  auto emit = [&](const std::string& line) {
    if (!first_event) os << ",";
    first_event = false;
    os << "\n" << line;
  };

  // Metadata: name every (pid, tid) track once.
  std::set<std::uint32_t> pids;
  std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
  for (const TraceEvent& e : events) {
    pids.insert(e.pid);
    tracks.insert({e.pid, e.tid});
  }
  for (std::uint32_t pid : pids) {
    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": \"" +
         TraceProcessName(pid) + "\"}}");
  }
  for (const auto& [pid, tid] : tracks) {
    emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid) + ", \"tid\": " + std::to_string(tid) +
         ", \"args\": {\"name\": \"" + TraceThreadName(pid, tid) + "\"}}");
  }

  for (const TraceEvent& e : events) {
    // Counter samples become Chrome counter-track events ("ph": "C"):
    // Perfetto renders one graph per (pid, name) series, so queue depth and
    // in-flight-table occupancy plot alongside the span lanes.
    if (TracePhaseIsCounter(e.phase)) {
      std::string line = "{\"name\": \"";
      line += TracePhaseName(e.phase);
      line += "\", \"cat\": \"";
      line += PhaseCategory(e.phase);
      line += "\", \"ph\": \"C\", \"pid\": " + std::to_string(e.pid) +
              ", \"tid\": " + std::to_string(e.tid) + ", \"ts\": ";
      AppendMicros(line, e.ts + epoch_offset[e.epoch]);
      line += ", \"args\": {\"value\": " + std::to_string(e.arg0) + "}}";
      emit(line);
      continue;
    }
    std::string line = "{\"name\": \"";
    line += TracePhaseName(e.phase);
    line += "\", \"cat\": \"";
    line += PhaseCategory(e.phase);
    line += "\", \"ph\": \"";
    line += e.is_span() ? 'X' : 'i';
    line += "\", \"pid\": " + std::to_string(e.pid) +
            ", \"tid\": " + std::to_string(e.tid) + ", \"ts\": ";
    AppendMicros(line, e.ts + epoch_offset[e.epoch]);
    if (e.is_span()) {
      line += ", \"dur\": ";
      AppendMicros(line, e.dur);
    } else {
      line += ", \"s\": \"t\"";  // instant scope: thread
    }
    line += ", \"args\": {";
    bool first_arg = true;
    AppendU64(line, "epoch", e.epoch, &first_arg);
    if (e.seq != 0) AppendU64(line, "seq", e.seq, &first_arg);
    if (!e.range.empty()) {
      AppendU64(line, "addr", e.range.begin, &first_arg);
      AppendU64(line, "size", e.range.size(), &first_arg);
    }
    if (!e.range2.empty()) {
      AppendU64(line, "addr2", e.range2.begin, &first_arg);
      AppendU64(line, "size2", e.range2.size(), &first_arg);
    }
    if (e.arg0 != 0) AppendU64(line, "arg0", e.arg0, &first_arg);
    if (e.arg1 != 0) AppendU64(line, "arg1", e.arg1, &first_arg);
    line += "}}";
    emit(line);
  }
  os << "\n]}\n";
}

void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& os) {
  WriteChromeTrace(recorder.Snapshot(), os);
}

bool WriteChromeTraceFile(const TraceRecorder& recorder,
                          const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  WriteChromeTrace(recorder, f);
  return f.good();
}

}  // namespace nearpm
