#include "src/hwmodel/hw_config.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/common/files.h"
#include "src/common/json.h"

namespace nearpm {
namespace hwmodel {

namespace {

// ---- CostModel field table ---------------------------------------------------

constexpr CostField kCostFields[] = {
    {"cpu_copy_base_ns", &CostModel::cpu_copy_base_ns},
    {"cpu_copy_per_line_ns", &CostModel::cpu_copy_per_line_ns},
    {"cpu_flush_line_ns", &CostModel::cpu_flush_line_ns},
    {"cpu_drain_ns", &CostModel::cpu_drain_ns},
    {"cpu_fence_ns", &CostModel::cpu_fence_ns},
    {"cpu_cached_read_ns", &CostModel::cpu_cached_read_ns},
    {"cpu_pm_read_ns", &CostModel::cpu_pm_read_ns},
    {"cpu_store_line_ns", &CostModel::cpu_store_line_ns},
    {"cpu_metadata_ns", &CostModel::cpu_metadata_ns},
    {"cpu_log_delete_ns", &CostModel::cpu_log_delete_ns},
    {"cpu_alloc_ns", &CostModel::cpu_alloc_ns},
    {"cpu_page_switch_ns", &CostModel::cpu_page_switch_ns},
    {"cmd_post_ns", &CostModel::cmd_post_ns},
    {"cmd_device_pipeline_ns", &CostModel::cmd_device_pipeline_ns},
    {"cpu_poll_round_ns", &CostModel::cpu_poll_round_ns},
    {"ndp_setup_ns", &CostModel::ndp_setup_ns},
    {"ndp_dma_ns_per_byte", &CostModel::ndp_dma_ns_per_byte},
    {"ndp_ls_per_line_ns", &CostModel::ndp_ls_per_line_ns},
    {"ndp_metadata_ns", &CostModel::ndp_metadata_ns},
    {"ndp_log_delete_ns", &CostModel::ndp_log_delete_ns},
    {"ndp_remote_status_ns", &CostModel::ndp_remote_status_ns},
    {"net_link_latency_ns", &CostModel::net_link_latency_ns},
    {"net_link_ns_per_byte", &CostModel::net_link_ns_per_byte},
    {"net_frame_bytes", &CostModel::net_frame_bytes},
    {"net_doorbell_ns", &CostModel::net_doorbell_ns},
};
constexpr std::size_t kNumCostFields =
    sizeof(kCostFields) / sizeof(kCostFields[0]);
// Every CostModel constant must have a row: the struct is doubles only, so
// its size pins the count.
static_assert(sizeof(CostModel) == kNumCostFields * sizeof(double),
              "CostModel gained a field; add it to kCostFields");

// "<section>.<key>" bandwidth alias: GB/s in the file, ns/byte in the model.
JsonField RateField(std::string key, double* ns_per_byte) {
  JsonField field;
  field.key = std::move(key);
  field.optional = true;
  field.read = [ns_per_byte](const JsonValue& v) -> Status {
    if (!v.is_number()) {
      return InvalidArgument("must be a number");
    }
    if (v.number <= 0.0) {
      return InvalidArgument("must be > 0 GB/s");
    }
    *ns_per_byte = 1.0 / v.number;
    return Status::Ok();
  };
  return field;
}

}  // namespace

const CostField* CostFields(std::size_t* count) {
  *count = kNumCostFields;
  return kCostFields;
}

double CostModel::* FindCostField(std::string_view name) {
  for (const CostField& field : kCostFields) {
    if (name == field.name) {
      return field.member;
    }
  }
  return nullptr;
}

Status HwConfig::Validate() const {
  if (schema_version != kHwSchemaVersion) {
    return InvalidArgument(
        "hwconfig: schema_version " + std::to_string(schema_version) +
        " is not supported (this build understands version " +
        std::to_string(kHwSchemaVersion) + ")");
  }
  if (units_per_device < 1 || units_per_device > 64) {
    return InvalidArgument("hwconfig: units_per_device must be in [1, 64]");
  }
  if (fifo_depth < 1 || fifo_depth > 4096) {
    return InvalidArgument("hwconfig: fifo_depth must be in [1, 4096]");
  }
  if (pipeline.lsq_depth < 0 || pipeline.lsq_depth > 1024) {
    return InvalidArgument("hwconfig: pipeline.lsq_depth must be in [0, 1024]");
  }
  if (!(pipeline.dispatch_ns >= 0.0) || pipeline.dispatch_ns > 1e6 ||
      !(pipeline.writeback_ns >= 0.0) || pipeline.writeback_ns > 1e6) {
    return InvalidArgument(
        "hwconfig: pipeline stage widths must be in [0, 1e6] ns");
  }
  for (const CostField& field : kCostFields) {
    const double v = cost.*field.member;
    if (!std::isfinite(v) || v < 0.0) {
      return InvalidArgument(std::string("hwconfig: cost.") + field.name +
                             " must be finite and >= 0");
    }
  }
  if (cost.ndp_dma_ns_per_byte <= 0.0 || cost.net_link_ns_per_byte <= 0.0) {
    return InvalidArgument(
        "hwconfig: per-byte rates must be > 0 (infinite bandwidth is not a "
        "geometry)");
  }
  return Status::Ok();
}

StatusOr<HwConfig> ParseHwConfig(std::string_view text) {
  StatusOr<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    return InvalidArgument("hwconfig: " + doc.status().message());
  }

  HwConfig config;
  int fifo_depth = static_cast<int>(config.fifo_depth);
  const JsonValue* pipeline = nullptr;
  const JsonValue* bandwidth = nullptr;
  const JsonValue* latency = nullptr;
  const JsonValue* cost = nullptr;
  NEARPM_RETURN_IF_ERROR(ReadJsonFields(
      *doc,
      {Optional(IntField("schema_version", &config.schema_version)),
       Optional(StringField("name", &config.name)),
       Optional(IntField("units_per_device", &config.units_per_device)),
       Optional(IntField("fifo_depth", &fifo_depth, 0)),
       Optional(ObjectField("pipeline", &pipeline)),
       Optional(ObjectField("bandwidth", &bandwidth)),
       Optional(ObjectField("latency", &latency)),
       Optional(ObjectField("cost", &cost))},
      "hwconfig"));
  config.fifo_depth = static_cast<std::size_t>(fifo_depth);

  // Sections apply in schema order -- pipeline, bandwidth, latency, cost --
  // so "cost" overrides an alias no matter where the author placed it.
  CostModel& c = config.cost;
  if (pipeline != nullptr) {
    NEARPM_RETURN_IF_ERROR(ReadJsonFields(
        *pipeline,
        {Optional(DoubleField("dispatch_ns", &config.pipeline.dispatch_ns)),
         Optional(DoubleField("writeback_ns", &config.pipeline.writeback_ns)),
         Optional(IntField("lsq_depth", &config.pipeline.lsq_depth))},
        "hwconfig: pipeline"));
  }
  if (bandwidth != nullptr) {
    NEARPM_RETURN_IF_ERROR(ReadJsonFields(
        *bandwidth,
        {RateField("axi_gbps", &c.ndp_dma_ns_per_byte),
         RateField("net_gbps", &c.net_link_ns_per_byte)},
        "hwconfig: bandwidth"));
  }
  if (latency != nullptr) {
    NEARPM_RETURN_IF_ERROR(ReadJsonFields(
        *latency,
        {Optional(DoubleField("pm_read_ns", &c.cpu_pm_read_ns)),
         Optional(DoubleField("cmd_post_ns", &c.cmd_post_ns)),
         Optional(DoubleField("cmd_pipeline_ns", &c.cmd_device_pipeline_ns)),
         Optional(DoubleField("ndp_setup_ns", &c.ndp_setup_ns)),
         Optional(DoubleField("net_link_ns", &c.net_link_latency_ns))},
        "hwconfig: latency"));
  }
  if (cost != nullptr) {
    std::vector<JsonField> fields;
    for (const CostField& field : kCostFields) {
      fields.push_back(Optional(DoubleField(field.name, &(c.*field.member))));
    }
    NEARPM_RETURN_IF_ERROR(ReadJsonFields(*cost, fields, "hwconfig: cost"));
  }
  NEARPM_RETURN_IF_ERROR(config.Validate());
  return config;
}

StatusOr<HwConfig> LoadHwConfigFile(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) {
    return NotFound("hwconfig: cannot read " + path);
  }
  StatusOr<HwConfig> config = ParseHwConfig(*text);
  if (!config.ok()) {
    return Status(config.status().code(),
                  path + ": " + config.status().message());
  }
  return config;
}

std::string WriteHwConfig(const HwConfig& config) {
  std::ostringstream out;
  // %.17g round-trips doubles exactly; trim the noise for integral values.
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  out << "{\n";
  out << "  \"schema_version\": " << config.schema_version << ",\n";
  out << "  \"name\": " << JsonQuote(config.name) << ",\n";
  out << "  \"units_per_device\": " << config.units_per_device << ",\n";
  out << "  \"fifo_depth\": " << config.fifo_depth << ",\n";
  out << "  \"pipeline\": {\"dispatch_ns\": " << num(config.pipeline.dispatch_ns)
      << ", \"writeback_ns\": " << num(config.pipeline.writeback_ns)
      << ", \"lsq_depth\": " << config.pipeline.lsq_depth << "},\n";
  out << "  \"cost\": {\n";
  for (std::size_t i = 0; i < kNumCostFields; ++i) {
    out << "    \"" << kCostFields[i].name
        << "\": " << num(config.cost.*kCostFields[i].member)
        << (i + 1 < kNumCostFields ? ",\n" : "\n");
  }
  out << "  }\n";
  out << "}\n";
  return out.str();
}

}  // namespace hwmodel
}  // namespace nearpm
