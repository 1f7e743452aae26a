// Config-driven device geometry (schema v1).
//
// The simulator originally evaluated one fixed NDP controller geometry: the
// VCU118 calibration of sim::CostModel plus the hard-coded "4 units, 32-entry
// FIFO" of Table 3. HwConfig makes that geometry a first-class, validated,
// versioned input so one binary can tell a design-space story instead of a
// single calibration point:
//
//  * device geometry -- NearPM units per device, Request-FIFO depth;
//  * unit microarchitecture -- dispatch/writeback pipeline stage widths and
//    an LSQ-style bound on requests in flight inside one unit;
//  * platform constants -- every sim::CostModel field, addressable by name,
//    plus friendly bandwidth (GB/s) and latency aliases for the common axes.
//
// A default-constructed HwConfig reproduces the seed platform bit-for-bit:
// `HwConfig{}.cost` is byte-identical to `CostModel{}`, the pipeline is
// disabled (zero-width stages, unbounded LSQ), and every committed baseline
// re-verifies unchanged when no config file is given. Geometry flows from
// here to every consumer -- RuntimeOptions, the devices, the replication
// fabric -- so no layer re-reads its own copy of the constants.
#ifndef SRC_HWMODEL_HW_CONFIG_H_
#define SRC_HWMODEL_HW_CONFIG_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/sim/cost_model.h"

namespace nearpm {
namespace hwmodel {

inline constexpr int kHwSchemaVersion = 1;

// Unit pipeline microarchitecture. All-zero (the default) collapses the
// pipeline into the seed's single-stage functional unit: no stage latches,
// no in-flight bound, no extra trace events.
struct PipelineConfig {
  // Fixed per-request residency of the dispatch stage (request register
  // load, operand steering into the unit). 0 = idealized, no latch.
  double dispatch_ns = 0.0;
  // Fixed per-request residency of the writeback stage (media commit +
  // status update). The request's writes stay in the in-flight table --
  // and conflicting requests stall -- until writeback completes.
  double writeback_ns = 0.0;
  // LSQ-style bound on requests a unit may hold in flight (dispatched but
  // not written back). 0 = unbounded (the seed's idealization). When full,
  // dispatch stalls until the oldest in-flight request drains.
  int lsq_depth = 0;

  bool enabled() const {
    return dispatch_ns > 0.0 || writeback_ns > 0.0 || lsq_depth > 0;
  }
};

struct HwConfig {
  int schema_version = kHwSchemaVersion;
  std::string name = "calibrated-default";

  // Device geometry (Table 3 defaults).
  int units_per_device = 4;
  std::size_t fifo_depth = 32;

  PipelineConfig pipeline;

  // Platform latency/bandwidth constants. Defaults are the seed calibration.
  CostModel cost;

  // Convenience views of the bandwidth-shaped constants.
  double AxiGbps() const { return 1.0 / cost.ndp_dma_ns_per_byte; }
  double NetGbps() const { return 1.0 / cost.net_link_ns_per_byte; }

  // First-order silicon cost proxy for the Pareto front (arbitrary units,
  // monotone in every axis a sweep varies): each unit costs 1 plus its LSQ
  // entries, the Request FIFO and the AXI/fabric bandwidth provisioning are
  // charged linearly. An unbounded LSQ is the idealized seed unit and is
  // charged as kUnboundedLsqArea entries. Stage widths trade throughput,
  // not area. Documented in DESIGN.md section 14.
  static constexpr int kUnboundedLsqArea = 16;
  double AreaProxy() const {
    const int lsq = pipeline.lsq_depth > 0 ? pipeline.lsq_depth
                                           : kUnboundedLsqArea;
    return static_cast<double>(units_per_device) *
               (1.0 + 0.03 * static_cast<double>(lsq)) +
           0.02 * static_cast<double>(fifo_depth) + 0.3 * AxiGbps() +
           0.1 * NetGbps();
  }

  // Range-checks every field (units in [1,64], FIFO in [1,4096], LSQ in
  // [0,1024], stage widths and every cost constant in [0, 1e6], rates > 0).
  // Parsing validates automatically; call this again after mutating a
  // parsed config by hand (the sweep grid does).
  Status Validate() const;
};

// Name -> member table of every sim::CostModel constant, in declaration
// order. The parser resolves the "cost" section through it, so adding a
// CostModel field means adding one row here (a static_assert pins the count).
struct CostField {
  const char* name;
  double CostModel::* member;
};
const CostField* CostFields(std::size_t* count);
// nullptr when `name` is not a CostModel constant.
double CostModel::* FindCostField(std::string_view name);

// Parses a config from its JSON text through the common strict reader
// (src/common/json.h). Schema:
//
//   {
//     "schema_version": 1,            // optional, must equal 1 when present
//     "name": "wide-device",          // optional label
//     "units_per_device": 8,
//     "fifo_depth": 64,
//     "pipeline": {"dispatch_ns": 20, "writeback_ns": 40, "lsq_depth": 8},
//     "bandwidth": {"axi_gbps": 8, "net_gbps": 25},     // friendly aliases
//     "latency":   {"pm_read_ns": 300, "cmd_post_ns": 80,
//                   "cmd_pipeline_ns": 400, "ndp_setup_ns": 20,
//                   "net_link_ns": 1200},
//     "cost": {"<any CostModel field>": <ns or ns/byte>}  // exact names
//   }
//
// Sections apply in a fixed order -- bandwidth, latency, then cost -- so a
// "cost" entry wins over an alias for the same constant. Unknown or
// duplicate keys, malformed syntax, wrong value kinds (an integer field
// takes an integer literal), schema-version mismatches and out-of-range
// values are all hard errors: a sweep must never silently run a geometry
// the author did not write.
StatusOr<HwConfig> ParseHwConfig(std::string_view text);

// Reads and parses `path`. Errors are prefixed with the file name.
StatusOr<HwConfig> LoadHwConfigFile(const std::string& path);

// Canonical JSON serialization of `config`: every field explicit (cost
// constants by exact name), key order fixed. Parse(Write(c)) == c, which the
// tests use as the round-trip check, and the sweep embeds it per cell.
std::string WriteHwConfig(const HwConfig& config);

}  // namespace hwmodel
}  // namespace nearpm

#endif  // SRC_HWMODEL_HW_CONFIG_H_
