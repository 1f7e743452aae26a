#include "src/trace/raw_trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>

#include "src/common/json.h"

namespace nearpm {

namespace {

// The writer's fixed field layout, after the opening brace and any
// "source". The phase travels by name, not enum value, so files survive
// enum reordering. `trace` was appended when request-scoped tracing landed;
// the reader still accepts the earlier lines without it (trace = 0) so
// archived captures stay replayable.
constexpr char kFieldsFormat[] =
    "\"phase\":\"%s\",\"pid\":%" PRIu32 ",\"tid\":%" PRIu32 ",\"ts\":%" PRIu64
    ",\"dur\":%" PRIu64 ",\"seq\":%" PRIu64 ",\"range\":[%" PRIu64 ",%" PRIu64
    "],\"range2\":[%" PRIu64 ",%" PRIu64 "],\"arg0\":%" PRIu64
    ",\"arg1\":%" PRIu64 ",\"epoch\":%" PRIu32 ",\"order\":%" PRIu64
    ",\"trace\":%" PRIu64 "}";

// "[begin,end]": exactly two non-negative integers (read only; the writer
// prints ranges through kFieldsFormat).
JsonField RangeField(std::string key, AddrRange* target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kArray || v.items.size() != 2 ||
        v.items[0].kind != JsonValue::Kind::kUint ||
        v.items[1].kind != JsonValue::Kind::kUint) {
      return InvalidArgument("must be an array of two non-negative integers");
    }
    target->begin = v.items[0].uint;
    target->end = v.items[1].uint;
    return Status::Ok();
  };
  field.write = []() -> std::optional<JsonValue> { return std::nullopt; };
  return field;
}

}  // namespace

void WriteEventLine(std::ostream& os, const TraceEvent& e,
                    std::optional<std::uint32_t> source) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), kFieldsFormat, TracePhaseName(e.phase), e.pid,
                e.tid, e.ts, e.dur, e.seq, e.range.begin, e.range.end,
                e.range2.begin, e.range2.end, e.arg0, e.arg1, e.epoch, e.order,
                e.trace);
  os << '{';
  if (source.has_value()) {
    os << "\"source\":" << *source << ',';
  }
  os << buf << '\n';
}

Status ReadEventLine(std::string_view line, TraceEvent* e,
                     std::uint32_t* source) {
  const StatusOr<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    return doc.status();
  }
  std::vector<JsonField> fields = {
      NamedField("phase", &e->phase, &TracePhaseNames()),
      UintField("pid", &e->pid),
      UintField("tid", &e->tid),
      UintField("ts", &e->ts),
      UintField("dur", &e->dur),
      UintField("seq", &e->seq),
      RangeField("range", &e->range),
      RangeField("range2", &e->range2),
      UintField("arg0", &e->arg0),
      UintField("arg1", &e->arg1),
      UintField("epoch", &e->epoch),
      UintField("order", &e->order),
      Optional(UintField("trace", &e->trace)),
  };
  if (source != nullptr) {
    fields.push_back(UintField("source", source));
  }
  return ReadJsonFields(*doc, fields, "event");
}

void WriteRawTrace(const std::vector<TraceEvent>& events, std::ostream& os) {
  for (const TraceEvent& e : events) {
    WriteEventLine(os, e);
  }
}

bool ReadRawTrace(std::istream& is, std::vector<TraceEvent>* out,
                  std::string* error) {
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    TraceEvent e;
    const Status st = ReadEventLine(line, &e);
    if (!st.ok()) {
      if (error != nullptr) {
        *error = "malformed raw trace line " + std::to_string(line_no) + ": " +
                 st.message();
      }
      return false;
    }
    out->push_back(e);
  }
  return true;
}

StatusOr<std::vector<TraceEvent>> ReadRawTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("cannot open " + path);
  }
  std::vector<TraceEvent> events;
  std::string error;
  if (!ReadRawTrace(in, &events, &error)) {
    return InvalidArgument(path + ": " + error);
  }
  return events;
}

}  // namespace nearpm
