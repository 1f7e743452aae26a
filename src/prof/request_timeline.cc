#include "src/prof/request_timeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "src/trace/chrome_exporter.h"

namespace nearpm {

namespace {

// Chrome timestamps are microseconds; keep nanosecond precision as
// fractional microseconds (same convention as the chrome exporter).
std::string Micros(SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::vector<std::uint64_t> ListTraceIds(
    const std::vector<TimelineSource>& sources) {
  std::set<std::uint64_t> ids;
  for (const TimelineSource& source : sources) {
    for (const TraceEvent& event : source.events) {
      if (event.trace != 0) {
        ids.insert(event.trace);
      }
    }
  }
  return {ids.begin(), ids.end()};
}

RequestTimeline BuildRequestTimeline(
    const std::vector<TimelineSource>& sources, std::uint64_t trace_id) {
  RequestTimeline timeline;
  timeline.trace = trace_id;
  bool first = true;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const TimelineSource& source = sources[s];
    timeline.source_labels.push_back(source.label);
    for (const TraceEvent& event : source.events) {
      if (event.trace != trace_id) {
        continue;
      }
      timeline.hops.push_back({static_cast<int>(s), event});
      if (first || event.ts < timeline.start) {
        timeline.start = event.ts;
      }
      if (first || event.end() > timeline.end) {
        timeline.end = event.end();
      }
      first = false;
    }
    // Per-source profile: each source is one recorder stream, so its
    // `order` sequence is internally consistent (the profiler's contract).
    const Profile profile = BuildProfile(source.events);
    for (const RequestSlice& slice : profile.slices) {
      if (slice.trace == trace_id) {
        timeline.slices.push_back(slice);
      }
    }
    for (const RequestSlice& slice : profile.attribution_violations) {
      if (slice.trace == trace_id) {
        timeline.attribution_violations.push_back(slice);
      }
    }
  }
  std::sort(timeline.hops.begin(), timeline.hops.end(),
            [](const TimelineHop& a, const TimelineHop& b) {
              if (a.event.ts != b.event.ts) return a.event.ts < b.event.ts;
              if (a.event.end() != b.event.end())
                return a.event.end() < b.event.end();
              if (a.source != b.source) return a.source < b.source;
              return a.event.order < b.event.order;
            });
  std::sort(timeline.slices.begin(), timeline.slices.end(),
            [](const RequestSlice& a, const RequestSlice& b) {
              if (a.post_ts != b.post_ts) return a.post_ts < b.post_ts;
              if (a.device_pid != b.device_pid)
                return a.device_pid < b.device_pid;
              return a.seq < b.seq;
            });
  return timeline;
}

void RenderRequestTimeline(const RequestTimeline& timeline, std::ostream& os) {
  os << "request trace " << timeline.trace << ": " << timeline.hops.size()
     << " events across " << timeline.source_labels.size() << " sources, "
     << timeline.slices.size() << " device slices\n";
  if (timeline.empty()) {
    os << "  (no events carry this trace id)\n";
    return;
  }
  os << "  span: " << timeline.span_ns() << " ns [" << timeline.start
     << " .. " << timeline.end << "]\n";
  os << "  attribution invariant: ";
  if (timeline.AttributionHolds()) {
    os << "holds\n";
  } else {
    const std::size_t broken = timeline.attribution_violations.size();
    os << "VIOLATED by " << broken << " device slices:\n";
    for (const RequestSlice& slice : timeline.attribution_violations) {
      os << "    seq " << slice.seq << " pid " << slice.device_pid;
      os << " unit " << slice.unit_tid << ": span=" << slice.span_ns();
      os << " does not tile\n";
    }
  }
  os << "  hops:\n";
  SimTime prev_end = timeline.start;
  for (const TimelineHop& hop : timeline.hops) {
    const TraceEvent& e = hop.event;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    [%12" PRIu64 " .. %12" PRIu64 "] %-8s %-18s",
                  e.ts, e.end(),
                  timeline.source_labels[static_cast<std::size_t>(hop.source)]
                      .c_str(),
                  TracePhaseName(e.phase));
    os << line << " " << TraceProcessName(e.pid) << " / "
       << TraceThreadName(e.pid, e.tid);
    if (e.seq != 0) {
      os << " seq=" << e.seq;
    }
    if (e.is_span()) {
      os << " dur=" << e.dur;
    }
    if (e.ts > prev_end) {
      os << " (+" << e.ts - prev_end << " ns gap)";
    }
    prev_end = std::max(prev_end, e.end());
    os << "\n";
  }
  if (!timeline.slices.empty()) {
    os << "  device slices (seven-phase attribution, ns):\n";
    for (const RequestSlice& slice : timeline.slices) {
      os << "    seq " << slice.seq << " pid " << slice.device_pid
         << " unit " << slice.unit_tid << ": span=" << slice.span_ns();
      for (int p = 0; p < kNumAttrPhases; ++p) {
        if (slice.phase_ns[p] > 0) {
          os << " " << AttrPhaseName(static_cast<AttrPhase>(p)) << "="
             << slice.phase_ns[p];
        }
      }
      os << "\n";
    }
  }
}

void WriteRequestTimelinePerfetto(const RequestTimeline& timeline,
                                  std::ostream& os) {
  // One Chrome process per source; within it, one thread per original
  // (pid, tid) track the request touched. Dense thread ids keep the JSON
  // small; the thread_name metadata keeps the lanes readable.
  std::map<std::pair<int, std::uint64_t>, int> tids;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&os, &first](const std::string& json) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n" << json;
  };
  for (std::size_t s = 0; s < timeline.source_labels.size(); ++s) {
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(s + 1) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"trace " +
         std::to_string(timeline.trace) + " / " + timeline.source_labels[s] +
         "\"}}");
  }
  for (const TimelineHop& hop : timeline.hops) {
    const TraceEvent& e = hop.event;
    const auto key = std::make_pair(
        hop.source, (static_cast<std::uint64_t>(e.pid) << 32) | e.tid);
    auto [it, inserted] = tids.emplace(key, static_cast<int>(tids.size()) + 1);
    const int tid = it->second;
    if (inserted) {
      emit("{\"ph\":\"M\",\"pid\":" + std::to_string(hop.source + 1) +
           ",\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           TraceProcessName(e.pid) + " / " + TraceThreadName(e.pid, e.tid) +
           "\"}}");
    }
    std::string json = "{\"ph\":\"";
    json += e.is_span() ? "X" : "i";
    json += "\",\"pid\":" + std::to_string(hop.source + 1) +
            ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + Micros(e.ts);
    if (e.is_span()) {
      json += ",\"dur\":" + Micros(e.dur);
    } else {
      json += ",\"s\":\"t\"";
    }
    json += ",\"name\":\"" + std::string(TracePhaseName(e.phase)) +
            "\",\"cat\":\"request\",\"args\":{\"seq\":" +
            std::to_string(e.seq) + ",\"trace\":" +
            std::to_string(e.trace) + ",\"arg0\":" + std::to_string(e.arg0) +
            "}}";
    emit(json);
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace nearpm
