#include "src/obs/flight_recorder.h"

#include <istream>
#include <optional>
#include <utility>

#include "src/common/json.h"
#include "src/trace/raw_trace.h"

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
  // Another schema version has other keys: name the version, not a key.
  const JsonValue* tag = doc->Find("schema");
  if (tag != nullptr && tag->kind == JsonValue::Kind::kString &&
      tag->str != kFlightSchema) {
    return InvalidArgument("header: schema \"" + tag->str + "\", want \"" +
                           kFlightSchema + "\"");
  }
  std::string schema;
  std::uint64_t capacity = 0;
  std::uint64_t accepted = 0;
  std::vector<std::string> labels;
  const JsonValue* alert = nullptr;
  NEARPM_RETURN_IF_ERROR(ReadJsonFields(
      *doc,
      {StringField("schema", &schema), UintField("capacity", &capacity),
       UintField("accepted", &accepted), LabelsField("sources", &labels),
       Optional(ObjectField("alert", &alert))},
      "header"));
  for (std::string& label : labels) {
    dump->sources.push_back({std::move(label), {}});
  }
  if (alert != nullptr) {
    dump->alert_json = line.substr(alert->begin, alert->end - alert->begin);
  }
  return Status::Ok();
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
    TraceEvent event;
    std::uint32_t source = 0;
    Status st = ReadEventLine(line, &event, &source);
    if (st.ok() && source >= dump.sources.size()) {
      st = InvalidArgument("event: source " + std::to_string(source) +
                           " is not listed in the header");
    }
    if (!st.ok()) {
      return InvalidArgument("line " + std::to_string(line_no) + ": " +
                             st.message());
    }
    dump.sources[source].events.push_back(event);
  }
  return dump;
}

void FlightRecorder::AddSource(std::string label,
                               const TraceRecorder* recorder) {
  labels_.push_back(std::move(label));
  recorders_.push_back(recorder);
}

std::vector<TimelineSource> FlightRecorder::Snapshot(
    std::size_t per_source) const {
  std::vector<TimelineSource> sources;
  sources.reserve(labels_.size());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    sources.push_back({labels_[i], recorders_[i]->Newest(per_source)});
  }
  return sources;
}

std::uint64_t FlightRecorder::accepted() const {
  std::uint64_t total = 0;
  for (const TraceRecorder* recorder : recorders_) {
    total += recorder->recorded();
  }
  return total;
}

void FlightRecorder::WriteRecords(std::ostream& os) const {
  const std::vector<TimelineSource> sources = Snapshot();
  for (std::uint32_t s = 0; s < sources.size(); ++s) {
    for (const TraceEvent& event : sources[s].events) {
      WriteEventLine(os, event, s);
    }
  }
}

}  // namespace obs
}  // namespace nearpm
