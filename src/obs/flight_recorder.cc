#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include "src/common/json.h"

namespace nearpm {
namespace obs {
namespace {

// The header's "sources": an array of labels (read only).
JsonField LabelsField(std::string key, std::vector<std::string>* target) {
  JsonField field;
  field.key = std::move(key);
  field.read = [target](const JsonValue& v) -> Status {
    if (v.kind != JsonValue::Kind::kArray) {
      return InvalidArgument("must be an array of strings");
    }
    for (const JsonValue& label : v.items) {
      if (label.kind != JsonValue::Kind::kString) {
        return InvalidArgument("must be an array of strings");
      }
      target->push_back(label.str);
    }
    return Status::Ok();
  };
  field.write = []() -> std::optional<JsonValue> { return std::nullopt; };
  return field;
}

Status ReadHeader(const std::string& line, FlightDump* dump) {
  const StatusOr<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    return doc.status();
  }
  std::string schema;
  std::uint64_t capacity = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  const JsonValue* alert = nullptr;
  NEARPM_RETURN_IF_ERROR(ReadJsonFields(
      *doc,
      {StringField("schema", &schema), UintField("capacity", &capacity),
       UintField("accepted", &accepted), UintField("dropped", &dropped),
       LabelsField("sources", &dump->sources),
       Optional(ObjectField("alert", &alert))},
      "header"));
  if (schema != kFlightSchema) {
    return InvalidArgument("header: schema \"" + schema + "\", want \"" +
                           kFlightSchema + "\"");
  }
  if (alert != nullptr) {
    dump->alert_json = line.substr(alert->begin, alert->end - alert->begin);
  }
  return Status::Ok();
}

Status ReadRecord(const std::string& line, FlightRecord* r) {
  const StatusOr<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    return doc.status();
  }
  return ReadJsonFields(
      *doc,
      {UintField("ticket", &r->ticket), UintField("source", &r->source),
       NamedField("phase", &r->phase, &TracePhaseNames()),
       UintField("pid", &r->pid), UintField("tid", &r->tid),
       UintField("ts", &r->ts), UintField("dur", &r->dur),
       UintField("seq", &r->seq), UintField("arg0", &r->arg0),
       UintField("epoch", &r->epoch), UintField("order", &r->order),
       UintField("trace", &r->trace)},
      "record");
}

}  // namespace

StatusOr<FlightDump> ReadFlightDump(std::istream& is) {
  FlightDump dump;
  std::string line;
  if (!std::getline(is, line)) {
    return InvalidArgument("empty flight dump");
  }
  if (const Status st = ReadHeader(line, &dump); !st.ok()) {
    return InvalidArgument("line 1: " + st.message());
  }
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    FlightRecord record;
    Status st = ReadRecord(line, &record);
    if (st.ok() && record.source >= dump.sources.size()) {
      st = InvalidArgument("record: source " + std::to_string(record.source) +
                           " is not listed in the header");
    }
    if (!st.ok()) {
      return InvalidArgument("line " + std::to_string(line_no) + ": " +
                             st.message());
    }
    dump.records.push_back(record);
  }
  return dump;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

TraceSink* FlightRecorder::RegisterSource(const std::string& label) {
  const auto id = static_cast<std::uint32_t>(sources_.size());
  sources_.push_back(std::make_unique<SourceSink>(this, id));
  labels_.push_back(label);
  return sources_.back().get();
}

void FlightRecorder::Record(std::uint32_t source, const TraceEvent& event) {
  const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[t % capacity_];
  // Seqlock write: odd stamp while the fields are in flux, even stamp (from
  // which the ticket is recoverable) once the record is whole. A lapped
  // concurrent writer leaves the loser's stamp mismatched, so Snapshot()
  // rejects the slot instead of emitting a hybrid record.
  slot.stamp.store(2 * t + 1, std::memory_order_release);
  slot.source.store(source, std::memory_order_relaxed);
  slot.phase.store(static_cast<std::uint32_t>(event.phase),
                   std::memory_order_relaxed);
  slot.pid.store(event.pid, std::memory_order_relaxed);
  slot.tid.store(event.tid, std::memory_order_relaxed);
  slot.ts.store(event.ts, std::memory_order_relaxed);
  slot.dur.store(event.dur, std::memory_order_relaxed);
  slot.seq.store(event.seq, std::memory_order_relaxed);
  slot.arg0.store(event.arg0, std::memory_order_relaxed);
  slot.epoch.store(event.epoch, std::memory_order_relaxed);
  slot.order.store(event.order, std::memory_order_relaxed);
  slot.trace.store(event.trace, std::memory_order_relaxed);
  slot.stamp.store(2 * (t + 1), std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(std::min<std::uint64_t>(accepted(), capacity_));
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const std::uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) {
      continue;  // never written, or a writer is inside
    }
    FlightRecord rec;
    rec.ticket = s1 / 2 - 1;
    rec.source = slot.source.load(std::memory_order_relaxed);
    rec.phase =
        static_cast<TracePhase>(slot.phase.load(std::memory_order_relaxed));
    rec.pid = slot.pid.load(std::memory_order_relaxed);
    rec.tid = slot.tid.load(std::memory_order_relaxed);
    rec.ts = slot.ts.load(std::memory_order_relaxed);
    rec.dur = slot.dur.load(std::memory_order_relaxed);
    rec.seq = slot.seq.load(std::memory_order_relaxed);
    rec.arg0 = slot.arg0.load(std::memory_order_relaxed);
    rec.epoch = slot.epoch.load(std::memory_order_relaxed);
    rec.order = slot.order.load(std::memory_order_relaxed);
    rec.trace = slot.trace.load(std::memory_order_relaxed);
    if (slot.stamp.load(std::memory_order_acquire) != s1) {
      continue;  // overwritten while we copied
    }
    out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.ticket < b.ticket;
            });
  return out;
}

void FlightRecorder::WriteRecords(std::ostream& os) const {
  char buf[512];
  for (const FlightRecord& r : Snapshot()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ticket\":%" PRIu64 ",\"source\":%" PRIu32
                  ",\"phase\":\"%s\",\"pid\":%" PRIu32 ",\"tid\":%" PRIu32
                  ",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",\"seq\":%" PRIu64
                  ",\"arg0\":%" PRIu64 ",\"epoch\":%" PRIu32
                  ",\"order\":%" PRIu64 ",\"trace\":%" PRIu64 "}",
                  r.ticket, r.source, TracePhaseName(r.phase), r.pid, r.tid,
                  r.ts, r.dur, r.seq, r.arg0, r.epoch, r.order, r.trace);
    os << buf << "\n";
  }
}

void FlightRecorder::Clear() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].stamp.store(0, std::memory_order_relaxed);
  }
  ticket_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace nearpm
