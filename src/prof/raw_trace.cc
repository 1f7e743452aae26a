#include "src/prof/raw_trace.h"

#include <cinttypes>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>

#include "src/common/json.h"

namespace nearpm {

namespace {

// The writer's fixed line layout. The phase travels by name, not enum value,
// so files survive enum reordering. `trace` was appended when
// request-scoped tracing landed; the reader still accepts the earlier lines
// without it (trace = 0) so archived captures stay replayable.
constexpr char kLineFormat[] =
    "{\"phase\":\"%s\",\"pid\":%" PRIu32 ",\"tid\":%" PRIu32 ",\"ts\":%" PRIu64
    ",\"dur\":%" PRIu64 ",\"seq\":%" PRIu64 ",\"range\":[%" PRIu64 ",%" PRIu64
    "],\"range2\":[%" PRIu64 ",%" PRIu64 "],\"arg0\":%" PRIu64
    ",\"arg1\":%" PRIu64 ",\"epoch\":%" PRIu32 ",\"order\":%" PRIu64
    ",\"trace\":%" PRIu64 "}";

// "[begin,end]": exactly two non-negative integers (read only; the writer
// prints ranges through kLineFormat).
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

Status ReadRawLine(std::string_view line, TraceEvent* e) {
  const StatusOr<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    return doc.status();
  }
  return ReadJsonFields(
      *doc,
      {NamedField("phase", &e->phase, &TracePhaseNames()),
       UintField("pid", &e->pid), UintField("tid", &e->tid),
       UintField("ts", &e->ts), UintField("dur", &e->dur),
       UintField("seq", &e->seq), RangeField("range", &e->range),
       RangeField("range2", &e->range2), UintField("arg0", &e->arg0),
       UintField("arg1", &e->arg1), UintField("epoch", &e->epoch),
       UintField("order", &e->order), Optional(UintField("trace", &e->trace))},
      "event");
}

}  // namespace

void WriteRawTrace(const std::vector<TraceEvent>& events, std::ostream& os) {
  char buf[512];
  for (const TraceEvent& e : events) {
    std::snprintf(buf, sizeof(buf), kLineFormat, TracePhaseName(e.phase),
                  e.pid, e.tid, e.ts, e.dur, e.seq, e.range.begin, e.range.end,
                  e.range2.begin, e.range2.end, e.arg0, e.arg1, e.epoch,
                  e.order, e.trace);
    os << buf << "\n";
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
    const Status st = ReadRawLine(line, &e);
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

}  // namespace nearpm
