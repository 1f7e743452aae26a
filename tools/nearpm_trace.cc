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
#include <cstdlib>
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

bool LookupPhase(const char* name, TracePhase* out) {
  for (int i = 0; i < static_cast<int>(TracePhase::kCount); ++i) {
    const auto phase = static_cast<TracePhase>(i);
    if (std::strcmp(TracePhaseName(phase), name) == 0) {
      *out = phase;
      return true;
    }
  }
  return false;
}

// Reads the dump's header object: schema check, source labels, and the
// alert payload when one is embedded (kept as its own JSON text).
bool ParseFlightHeader(const std::string& line,
                       std::vector<std::string>* labels,
                       std::string* alert_json, std::string* error) {
  const StatusOr<JsonValue> header = ParseJson(line);
  if (!header.ok()) {
    *error = "header: " + header.status().message();
    return false;
  }
  const JsonValue* schema = header->Find("schema");
  if (schema == nullptr || schema->str != obs::kFlightSchema) {
    *error = "header does not carry schema \"" +
             std::string(obs::kFlightSchema) + "\"";
    return false;
  }
  const JsonValue* sources = header->Find("sources");
  if (sources == nullptr || sources->kind != JsonValue::Kind::kArray) {
    *error = "header has no sources array";
    return false;
  }
  for (const JsonValue& label : sources->items) {
    if (label.kind != JsonValue::Kind::kString) {
      *error = "source labels must be strings";
      return false;
    }
    labels->push_back(label.str);
  }
  if (const JsonValue* alert = header->Find("alert"); alert != nullptr) {
    if (alert->kind != JsonValue::Kind::kObject) {
      *error = "header alert must be an object";
      return false;
    }
    *alert_json = line.substr(alert->begin, alert->end - alert->begin);
  }
  return true;
}

// Parses one compacted record line (the exact format WriteRecords emits).
// Ranges and arg1 are not in the compacted form and stay zero.
bool ParseFlightRecord(const std::string& line, std::uint32_t* source,
                       TraceEvent* event) {
  char phase_name[64] = {};
  std::uint64_t ticket = 0;
  const int n = std::sscanf(
      line.c_str(),
      "{\"ticket\":%" SCNu64 ",\"source\":%" SCNu32
      ",\"phase\":\"%63[^\"]\",\"pid\":%" SCNu32 ",\"tid\":%" SCNu32
      ",\"ts\":%" SCNu64 ",\"dur\":%" SCNu64 ",\"seq\":%" SCNu64
      ",\"arg0\":%" SCNu64 ",\"epoch\":%" SCNu32 ",\"order\":%" SCNu64
      ",\"trace\":%" SCNu64 "}",
      &ticket, source, phase_name, &event->pid, &event->tid, &event->ts,
      &event->dur, &event->seq, &event->arg0, &event->epoch, &event->order,
      &event->trace);
  return n == 12 && LookupPhase(phase_name, &event->phase);
}

bool LoadFlightDump(const std::string& path,
                    std::vector<TimelineSource>* sources,
                    std::string* alert_json, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    *error = path + ": empty file";
    return false;
  }
  std::vector<std::string> labels;
  if (!ParseFlightHeader(line, &labels, alert_json, error)) {
    *error = path + ": " + *error;
    return false;
  }
  const std::size_t base = sources->size();
  for (const std::string& label : labels) {
    sources->push_back(TimelineSource{label, {}});
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::uint32_t source = 0;
    TraceEvent event;
    if (!ParseFlightRecord(line, &source, &event) ||
        source >= labels.size()) {
      *error = path + ": malformed record at line " + std::to_string(line_no);
      return false;
    }
    (*sources)[base + source].events.push_back(event);
  }
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
