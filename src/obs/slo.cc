#include "src/obs/slo.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/files.h"
#include "src/common/json.h"

namespace nearpm {
namespace obs {

namespace {

// Writes a double the way the canonical form expects: integers without a
// fraction, everything else with enough digits to round-trip.
std::string NumberText(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

Status SloSpec::Validate() const {
  if (schema_version != kSloSchemaVersion) {
    return InvalidArgument("slo schema_version must be " +
                           std::to_string(kSloSchemaVersion) + ", got " +
                           std::to_string(schema_version));
  }
  if (!(window_ns >= 1.0 && window_ns <= 1e15)) {
    return InvalidArgument("slo window_ns must be in [1, 1e15]");
  }
  if (p99_ns < 0 || !std::isfinite(p99_ns)) {
    return InvalidArgument("slo p99_ns must be finite and >= 0");
  }
  if (max_error_rate < 0 || max_error_rate > 1) {
    return InvalidArgument("slo max_error_rate must be in [0, 1]");
  }
  if (max_stall_fraction < 0 || max_stall_fraction > 1) {
    return InvalidArgument("slo max_stall_fraction must be in [0, 1]");
  }
  if (slow_k < 0 || slow_k > 64) {
    return InvalidArgument("slo slow_k must be in [0, 64]");
  }
  return Status::Ok();
}

StatusOr<SloSpec> ParseSloSpec(std::string_view text) {
  StatusOr<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    return InvalidArgument("slo parse error: " + doc.status().message());
  }
  SloSpec spec;
  NEARPM_RETURN_IF_ERROR(ReadJsonFields(
      *doc,
      {Optional(IntField("schema_version", &spec.schema_version, 0)),
       Optional(StringField("name", &spec.name)),
       Optional(DoubleField("p99_ns", &spec.p99_ns)),
       Optional(DoubleField("max_error_rate", &spec.max_error_rate)),
       Optional(DoubleField("max_stall_fraction", &spec.max_stall_fraction)),
       Optional(DoubleField("window_ns", &spec.window_ns)),
       Optional(UintField("min_requests", &spec.min_requests)),
       Optional(IntField("slow_k", &spec.slow_k, 0))},
      "slo"));
  NEARPM_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<SloSpec> LoadSloSpecFile(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) {
    return InvalidArgument("cannot open slo spec file: " + path);
  }
  auto spec = ParseSloSpec(*text);
  if (!spec.ok()) {
    return InvalidArgument(path + ": " + spec.status().message());
  }
  return spec;
}

std::string WriteSloSpec(const SloSpec& spec) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << spec.schema_version << ",\n";
  os << "  \"name\": " << JsonQuote(spec.name) << ",\n";
  os << "  \"p99_ns\": " << NumberText(spec.p99_ns) << ",\n";
  os << "  \"max_error_rate\": " << NumberText(spec.max_error_rate) << ",\n";
  os << "  \"max_stall_fraction\": " << NumberText(spec.max_stall_fraction)
     << ",\n";
  os << "  \"window_ns\": " << NumberText(spec.window_ns) << ",\n";
  os << "  \"min_requests\": " << spec.min_requests << ",\n";
  os << "  \"slow_k\": " << spec.slow_k << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace obs
}  // namespace nearpm
