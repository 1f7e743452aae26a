// HwConfig schema tests (parse/validate/round-trip) and UnitPipeline timing
// tests: the default geometry must collapse to the seed's UnitPool
// scheduling, and the pipelined geometry must chain stages and bound the
// in-flight population the way DESIGN.md section 14 documents.
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/hwmodel/hw_config.h"
#include "src/ndp/pipeline.h"
#include "src/sim/timeline.h"

namespace nearpm {
namespace {

using hwmodel::HwConfig;
using hwmodel::LoadHwConfigFile;
using hwmodel::ParseHwConfig;
using hwmodel::WriteHwConfig;

// ---------------------------------------------------------------------------
// Defaults

TEST(HwConfigTest, DefaultCostIsByteIdenticalToSeedCostModel) {
  const HwConfig hw;
  const CostModel seed;
  EXPECT_EQ(0, std::memcmp(&hw.cost, &seed, sizeof(CostModel)));
  EXPECT_EQ(4, hw.units_per_device);
  EXPECT_EQ(32u, hw.fifo_depth);
  EXPECT_FALSE(hw.pipeline.enabled());
  EXPECT_TRUE(hw.Validate().ok());
}

TEST(HwConfigTest, EmptyObjectParsesToDefaults) {
  const auto hw = ParseHwConfig("{}");
  ASSERT_TRUE(hw.ok()) << hw.status().ToString();
  EXPECT_EQ(WriteHwConfig(HwConfig{}), WriteHwConfig(*hw));
}

TEST(HwConfigTest, CostFieldTableCoversEveryConstant) {
  std::size_t count = 0;
  const auto* fields = hwmodel::CostFields(&count);
  ASSERT_NE(nullptr, fields);
  // Every table row resolves by name, and writing through the member
  // pointer touches distinct storage (no aliased rows).
  HwConfig hw;
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(fields[i].member, hwmodel::FindCostField(fields[i].name));
    hw.cost.*(fields[i].member) = 1000.0 + static_cast<double>(i);
  }
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(1000.0 + static_cast<double>(i), hw.cost.*(fields[i].member))
        << fields[i].name;
  }
  EXPECT_EQ(nullptr, hwmodel::FindCostField("no_such_constant"));
}

// ---------------------------------------------------------------------------
// Round-trip

TEST(HwConfigTest, WriteParseRoundTripsNonTrivialConfig) {
  HwConfig hw;
  hw.name = "round-trip";
  hw.units_per_device = 7;
  hw.fifo_depth = 96;
  hw.pipeline.dispatch_ns = 12.5;
  hw.pipeline.writeback_ns = 37.25;
  hw.pipeline.lsq_depth = 6;
  hw.cost.ndp_dma_ns_per_byte = 0.125;
  hw.cost.cpu_pm_read_ns = 391.0;
  ASSERT_TRUE(hw.Validate().ok());

  const std::string text = WriteHwConfig(hw);
  const auto parsed = ParseHwConfig(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(hw.name, parsed->name);
  EXPECT_EQ(hw.units_per_device, parsed->units_per_device);
  EXPECT_EQ(hw.fifo_depth, parsed->fifo_depth);
  EXPECT_EQ(hw.pipeline.dispatch_ns, parsed->pipeline.dispatch_ns);
  EXPECT_EQ(hw.pipeline.writeback_ns, parsed->pipeline.writeback_ns);
  EXPECT_EQ(hw.pipeline.lsq_depth, parsed->pipeline.lsq_depth);
  EXPECT_EQ(0, std::memcmp(&hw.cost, &parsed->cost, sizeof(CostModel)));
  EXPECT_EQ(text, WriteHwConfig(*parsed));
}

// ---------------------------------------------------------------------------
// Schema rejection -- a sweep must never silently run a geometry the author
// did not write.

TEST(HwConfigTest, RejectsMalformedJson) {
  EXPECT_FALSE(ParseHwConfig("").ok());
  EXPECT_FALSE(ParseHwConfig("{").ok());
  EXPECT_FALSE(ParseHwConfig("{\"units_per_device\": }").ok());
  EXPECT_FALSE(ParseHwConfig("{\"units_per_device\" 4}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"units_per_device\": 4} trailing").ok());
  EXPECT_FALSE(ParseHwConfig("[1, 2]").ok());
  EXPECT_FALSE(ParseHwConfig("{\"fifo_depth\": [8]}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"name\": btree}").ok());
}

TEST(HwConfigTest, RejectsUnknownKeys) {
  EXPECT_FALSE(ParseHwConfig("{\"unit_count\": 4}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"pipeline\": {\"depth\": 3}}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"bandwidth\": {\"pcie_gbps\": 16}}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"cost\": {\"warp_speed_ns\": 1}}").ok());
}

TEST(HwConfigTest, RejectsDuplicateKeys) {
  EXPECT_FALSE(
      ParseHwConfig("{\"units_per_device\": 4, \"units_per_device\": 8}")
          .ok());
  EXPECT_FALSE(
      ParseHwConfig(
          "{\"pipeline\": {\"lsq_depth\": 2, \"lsq_depth\": 4}}")
          .ok());
}

TEST(HwConfigTest, RejectsWrongSchemaVersion) {
  EXPECT_FALSE(ParseHwConfig("{\"schema_version\": 0}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"schema_version\": 2}").ok());
  EXPECT_TRUE(ParseHwConfig("{\"schema_version\": 1}").ok());
}

TEST(HwConfigTest, RejectsOutOfRangeValues) {
  EXPECT_FALSE(ParseHwConfig("{\"units_per_device\": 0}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"units_per_device\": 65}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"fifo_depth\": 0}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"fifo_depth\": 5000}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"pipeline\": {\"lsq_depth\": -1}}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"pipeline\": {\"lsq_depth\": 2000}}").ok());
  EXPECT_FALSE(
      ParseHwConfig("{\"pipeline\": {\"dispatch_ns\": -5}}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"bandwidth\": {\"axi_gbps\": 0}}").ok());
  EXPECT_FALSE(ParseHwConfig("{\"cost\": {\"cmd_post_ns\": -1}}").ok());
}

TEST(HwConfigTest, ValidateCatchesHandMutatedConfigs) {
  HwConfig hw;
  hw.units_per_device = 0;  // the sweep mutates parsed configs in place
  EXPECT_FALSE(hw.Validate().ok());
  hw.units_per_device = 4;
  hw.cost.ndp_dma_ns_per_byte = 0.0;  // rate constants must stay > 0
  EXPECT_FALSE(hw.Validate().ok());
  // A 1e-300 GB/s link: each byte would take longer than the sim clock's
  // whole range.
  hw.cost.ndp_dma_ns_per_byte = 1e300;
  const Status st = hw.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ndp_dma_ns_per_byte"), std::string::npos)
      << st.message();
  hw.cost.ndp_dma_ns_per_byte = 1e6;  // the bound itself is a geometry
  EXPECT_TRUE(hw.Validate().ok());
}

// ---------------------------------------------------------------------------
// Aliases and section precedence

TEST(HwConfigTest, BandwidthAliasSetsRateConstant) {
  const auto hw = ParseHwConfig("{\"bandwidth\": {\"axi_gbps\": 8}}");
  ASSERT_TRUE(hw.ok()) << hw.status().ToString();
  EXPECT_DOUBLE_EQ(0.125, hw->cost.ndp_dma_ns_per_byte);
  EXPECT_DOUBLE_EQ(8.0, hw->AxiGbps());
}

TEST(HwConfigTest, CostSectionWinsOverAlias) {
  const auto hw = ParseHwConfig(
      "{\"bandwidth\": {\"axi_gbps\": 8},"
      " \"cost\": {\"ndp_dma_ns_per_byte\": 0.5}}");
  ASSERT_TRUE(hw.ok()) << hw.status().ToString();
  EXPECT_DOUBLE_EQ(0.5, hw->cost.ndp_dma_ns_per_byte);
}

// ---------------------------------------------------------------------------
// Committed sample geometries

TEST(HwConfigTest, CommittedConfigsParse) {
  const std::string dir = NEARPM_CONFIG_DIR;
  for (const char* name :
       {"calibrated-default.json", "wide-pipelined.json",
        "lean-device.json"}) {
    const auto hw = LoadHwConfigFile(dir + "/" + name);
    EXPECT_TRUE(hw.ok()) << name << ": " << hw.status().ToString();
  }
}

TEST(HwConfigTest, CalibratedDefaultConfigEqualsDefaults) {
  const auto hw =
      LoadHwConfigFile(std::string(NEARPM_CONFIG_DIR) +
                       "/calibrated-default.json");
  ASSERT_TRUE(hw.ok()) << hw.status().ToString();
  const HwConfig defaults;
  EXPECT_EQ(WriteHwConfig(defaults), WriteHwConfig(*hw));
  EXPECT_EQ(0, std::memcmp(&hw->cost, &defaults.cost, sizeof(CostModel)));
}

TEST(HwConfigTest, LoadReportsMissingFile) {
  EXPECT_FALSE(LoadHwConfigFile("/nonexistent/geometry.json").ok());
}

// ---------------------------------------------------------------------------
// AreaProxy

TEST(HwConfigTest, AreaProxyIsMonotoneInSweepAxes) {
  HwConfig base;
  HwConfig more_units = base;
  more_units.units_per_device = 8;
  HwConfig deeper_fifo = base;
  deeper_fifo.fifo_depth = 64;
  HwConfig faster_axi = base;
  faster_axi.cost.ndp_dma_ns_per_byte = base.cost.ndp_dma_ns_per_byte / 2;
  EXPECT_GT(more_units.AreaProxy(), base.AreaProxy());
  EXPECT_GT(deeper_fifo.AreaProxy(), base.AreaProxy());
  EXPECT_GT(faster_axi.AreaProxy(), base.AreaProxy());
  // A bounded LSQ is cheaper than the idealized unbounded unit.
  HwConfig bounded = base;
  bounded.pipeline.lsq_depth = 4;
  EXPECT_LT(bounded.AreaProxy(), base.AreaProxy());
}

// ---------------------------------------------------------------------------
// UnitPipeline scheduling

TEST(UnitPipelineTest, DisabledPipelineMatchesSeedUnitPool) {
  // Same request stream through UnitPipeline (default geometry) and the
  // seed's UnitPool: unit choice and completion must agree exactly.
  const HwConfig hw;
  UnitPipeline pipe(&hw);
  UnitPool pool(hw.units_per_device);
  ASSERT_FALSE(pipe.pipelined());
  const struct {
    SimTime earliest;
    double work_ns;
  } reqs[] = {{0, 100}, {10, 50}, {10, 200}, {60, 10},
              {70, 10}, {500, 1}, {500, 1},  {501, 300}};
  for (const auto& r : reqs) {
    int pool_unit = -1;
    const SimTime pool_done = pool.Schedule(r.earliest, r.work_ns, &pool_unit);
    const PipelineSchedule s = pipe.Schedule(r.earliest, r.work_ns);
    EXPECT_EQ(pool_unit, s.unit);
    EXPECT_EQ(pool_done, s.wb_end);
    // Degenerate stages: no latch time anywhere.
    EXPECT_EQ(s.dispatch_start, s.dispatch_end);
    EXPECT_EQ(s.dispatch_end, s.exec_start);
    EXPECT_EQ(s.exec_end, s.wb_start);
    EXPECT_EQ(s.wb_start, s.wb_end);
    EXPECT_FALSE(s.lsq_stalled);
  }
  EXPECT_EQ(pool.AllIdleAt(), pipe.AllIdleAt());
}

TEST(UnitPipelineTest, StagesChainInOrder) {
  HwConfig hw;
  hw.units_per_device = 1;
  hw.pipeline.dispatch_ns = 10;
  hw.pipeline.writeback_ns = 20;
  UnitPipeline pipe(&hw);
  ASSERT_TRUE(pipe.pipelined());
  const PipelineSchedule s = pipe.Schedule(100, 50);
  EXPECT_EQ(100u, s.dispatch_start);
  EXPECT_EQ(110u, s.dispatch_end);
  EXPECT_EQ(110u, s.exec_start);
  EXPECT_EQ(160u, s.exec_end);
  EXPECT_EQ(160u, s.wb_start);
  EXPECT_EQ(180u, s.wb_end);
  EXPECT_FALSE(s.lsq_stalled);
  EXPECT_EQ(1u, s.lsq_occupancy);
}

TEST(UnitPipelineTest, BackToBackRequestsOverlapStages) {
  HwConfig hw;
  hw.units_per_device = 1;
  hw.pipeline.dispatch_ns = 10;
  hw.pipeline.writeback_ns = 10;
  UnitPipeline pipe(&hw);
  const PipelineSchedule a = pipe.Schedule(0, 100);
  const PipelineSchedule b = pipe.Schedule(0, 100);
  // b's dispatch starts as soon as the dispatch stage frees (10), well
  // before a leaves the unit (120): classic stage-level overlap.
  EXPECT_EQ(10u, b.dispatch_start);
  EXPECT_LT(b.dispatch_start, a.wb_end);
  // The shared execute stage serializes the actual work.
  EXPECT_EQ(a.exec_end, b.exec_start);
  EXPECT_EQ(b.exec_end + 10, b.wb_end);
}

TEST(UnitPipelineTest, FullLsqStallsDispatchUntilOldestDrains) {
  HwConfig hw;
  hw.units_per_device = 1;
  hw.pipeline.dispatch_ns = 1;
  hw.pipeline.writeback_ns = 1;
  hw.pipeline.lsq_depth = 2;
  UnitPipeline pipe(&hw);
  const PipelineSchedule a = pipe.Schedule(0, 100);
  const PipelineSchedule b = pipe.Schedule(0, 100);
  EXPECT_FALSE(a.lsq_stalled);
  EXPECT_FALSE(b.lsq_stalled);
  // Two requests in flight: the third may not dispatch until a completes
  // writeback.
  const PipelineSchedule c = pipe.Schedule(0, 100);
  EXPECT_TRUE(c.lsq_stalled);
  EXPECT_GE(c.dispatch_start, a.wb_end);
  EXPECT_LE(c.lsq_occupancy, 2u);
}

TEST(UnitPipelineTest, LsqAdmitsWithoutStallOnceDrained) {
  HwConfig hw;
  hw.units_per_device = 1;
  hw.pipeline.dispatch_ns = 1;
  hw.pipeline.writeback_ns = 1;
  hw.pipeline.lsq_depth = 2;
  UnitPipeline pipe(&hw);
  const PipelineSchedule a = pipe.Schedule(0, 10);
  (void)pipe.Schedule(0, 10);
  // Arrives long after both earlier requests retired: no stall.
  const PipelineSchedule c = pipe.Schedule(10000, 10);
  EXPECT_FALSE(c.lsq_stalled);
  EXPECT_EQ(10000u, c.dispatch_start);
  EXPECT_GT(c.dispatch_start, a.wb_end);
}

TEST(UnitPipelineTest, ResetRestoresIdleUnits) {
  HwConfig hw;
  hw.units_per_device = 2;
  hw.pipeline.dispatch_ns = 5;
  hw.pipeline.writeback_ns = 5;
  hw.pipeline.lsq_depth = 1;
  UnitPipeline pipe(&hw);
  (void)pipe.Schedule(0, 1000);
  (void)pipe.Schedule(0, 1000);
  pipe.Reset();
  EXPECT_EQ(0u, pipe.AllIdleAt());
  const PipelineSchedule s = pipe.Schedule(0, 10);
  EXPECT_EQ(0, s.unit);
  EXPECT_EQ(0u, s.dispatch_start);
  EXPECT_FALSE(s.lsq_stalled);
}

}  // namespace
}  // namespace nearpm
