// nearpm_trace: offline request-timeline viewer for flight dumps and raw
// traces.
//
// Inputs (repeatable, combined into one labeled source set):
//
//   --flight-in=FILE          a flight-record dump (the nearpm-flight-v1
//                             JSONL a breach writes, or DumpFlightRecord's
//                             output): the header names the sources, every
//                             record line rejoins the source it came from
//   --trace-in=[LABEL:]FILE   a raw trace (WriteRawTrace JSONL) as one
//                             source; LABEL defaults to the file path
//
// Actions:
//
//   (none)                    validate the inputs and print a summary --
//                             schema, per-source event counts, the embedded
//                             alert if the dump carries one
//   --list                    print every distinct request trace id,
//                             ascending, one per line
//   --request=ID              reconstruct and render request ID's
//                             cross-source timeline (hops, gaps, device
//                             slice attribution)
//   --request=slowest         same, picking the slowest request named by
//                             the dump's alert
//   --perfetto=FILE           with --request: also write the per-request
//                             Chrome/Perfetto JSON (one lane per source)
//
// Exit codes: 0 ok, 1 request/alert not found or attribution broken,
// 2 usage or malformed input. CI leans on 2: a dump that stops parsing is
// a schema regression.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/obs/flight_recorder.h"
#include "src/prof/raw_trace.h"
#include "src/prof/request_timeline.h"
#include "src/trace/trace_event.h"
#include "tools/flags.h"

namespace nearpm {
namespace {

bool LoadFlightDump(const std::string& path,
                    std::vector<TimelineSource>* sources,
                    std::string* alert_json, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  const StatusOr<obs::FlightDump> dump = obs::ReadFlightDump(in);
  if (!dump.ok()) {
    *error = path + ": " + dump.status().message();
    return false;
  }
  const std::size_t base = sources->size();
  for (const std::string& label : dump->sources) {
    sources->push_back(TimelineSource{label, {}});
  }
  // The compacted form drops ranges and arg1; they stay zero.
  for (const obs::FlightRecord& r : dump->records) {
    TraceEvent event;
    event.phase = r.phase;
    event.pid = r.pid;
    event.tid = r.tid;
    event.ts = r.ts;
    event.dur = r.dur;
    event.seq = r.seq;
    event.arg0 = r.arg0;
    event.epoch = r.epoch;
    event.order = r.order;
    event.trace = r.trace;
    (*sources)[base + r.source].events.push_back(event);
  }
  *alert_json = dump->alert_json;
  return true;
}

bool LoadRawTrace(const std::string& spec,
                  std::vector<TimelineSource>* sources, std::string* error) {
  // LABEL:FILE when a colon precedes any '/'; otherwise the path labels
  // itself.
  std::string label = spec;
  std::string path = spec;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos && colon > 0 &&
      spec.find('/') > colon) {
    label = spec.substr(0, colon);
    path = spec.substr(colon + 1);
  }
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::vector<TraceEvent> events;
  std::string parse_error;
  if (!ReadRawTrace(in, &events, &parse_error)) {
    *error = path + ": " + parse_error;
    return false;
  }
  sources->push_back(TimelineSource{label, std::move(events)});
  return true;
}

// The slowest request named by the alert: first entry of its "slow" array
// (WindowStats keeps it sorted, worst first).
bool SlowestFromAlert(const std::string& alert_json, std::uint64_t* out) {
  const StatusOr<JsonValue> alert = ParseJson(alert_json);
  if (!alert.ok()) {
    return false;
  }
  const JsonValue* slow = alert->Find("slow");
  if (slow == nullptr || slow->items.empty()) {
    return false;
  }
  const JsonValue* trace = slow->items.front().Find("trace");
  if (trace == nullptr || trace->kind != JsonValue::Kind::kUint ||
      trace->uint == 0) {
    return false;
  }
  *out = trace->uint;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--flight-in=FILE] [--trace-in=[LABEL:]FILE]...\n"
               "          [--list] [--request=ID|slowest] [--perfetto=FILE]\n",
               argv0);
  return 2;
}

int Run(int argc, char** argv) {
  std::string flight_in;
  std::vector<std::string> trace_ins;
  bool list = false;
  std::string request;
  std::string perfetto;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (MatchFlag(argv[i], "--flight-in", &value)) {
      flight_in = value;
    } else if (MatchFlag(argv[i], "--trace-in", &value)) {
      trace_ins.push_back(value);
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (MatchFlag(argv[i], "--request", &value)) {
      request = value;
    } else if (MatchFlag(argv[i], "--perfetto", &value)) {
      perfetto = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (flight_in.empty() && trace_ins.empty()) {
    return Usage(argv[0]);
  }

  std::vector<TimelineSource> sources;
  std::string alert_json;
  std::string error;
  if (!flight_in.empty() &&
      !LoadFlightDump(flight_in, &sources, &alert_json, &error)) {
    std::fprintf(stderr, "flight: %s\n", error.c_str());
    return 2;
  }
  for (const std::string& spec : trace_ins) {
    if (!LoadRawTrace(spec, &sources, &error)) {
      std::fprintf(stderr, "trace: %s\n", error.c_str());
      return 2;
    }
  }

  const std::vector<std::uint64_t> ids = ListTraceIds(sources);
  std::printf("sources=%zu requests=%zu\n", sources.size(), ids.size());
  for (const TimelineSource& source : sources) {
    std::printf("  %-12s %zu events\n", source.label.c_str(),
                source.events.size());
  }
  if (!alert_json.empty()) {
    std::printf("alert: %s\n", alert_json.c_str());
  }

  if (list) {
    for (const std::uint64_t id : ids) {
      std::printf("%" PRIu64 "\n", id);
    }
  }

  if (request.empty()) {
    return 0;
  }
  std::uint64_t trace_id = 0;
  if (request == "slowest") {
    if (!SlowestFromAlert(alert_json, &trace_id)) {
      std::fprintf(stderr, "no alert with a slow-request list loaded\n");
      return 1;
    }
  } else if (!ParseUint(request.c_str(), &trace_id) || trace_id == 0) {
    return Usage(argv[0]);
  }

  const RequestTimeline timeline = BuildRequestTimeline(sources, trace_id);
  if (timeline.empty()) {
    std::fprintf(stderr,
                 "request %" PRIu64 ": no events in the loaded sources\n",
                 trace_id);
    return 1;
  }
  RenderRequestTimeline(timeline, std::cout);
  if (!timeline.AttributionHolds()) {
    std::fprintf(stderr,
                 "request %" PRIu64 ": slice attribution does not tile\n",
                 trace_id);
    return 1;
  }
  if (!perfetto.empty()) {
    std::ofstream out(perfetto, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", perfetto.c_str());
      return 2;
    }
    WriteRequestTimelinePerfetto(timeline, out);
    std::printf("perfetto: wrote %s\n", perfetto.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::Run(argc, argv); }
