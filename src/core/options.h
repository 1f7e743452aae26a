// Runtime configuration: execution modes and platform parameters.
#ifndef SRC_CORE_OPTIONS_H_
#define SRC_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/common/name_table.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/hwmodel/hw_config.h"

namespace nearpm {

// The four comparison points of Section 8.1.
enum class ExecMode : std::uint8_t {
  kCpuBaseline,      // crash consistency executes entirely on the CPU
  kNdpSingleDevice,  // offloaded to one NearPM device
  kNdpMultiSwSync,   // two devices, CPU-polling software synchronization
  kNdpMultiDelayed,  // two devices, PPO delayed synchronization
};

// The canonical names: "baseline", "nearpm_sd", "nearpm_md_swsync",
// "nearpm_md".
const NameTable<ExecMode>& ExecModeNames();
const char* ExecModeName(ExecMode mode);
StatusOr<ExecMode> ExecModeFromName(const std::string& name);

struct RuntimeOptions {
  ExecMode mode = ExecMode::kNdpMultiDelayed;
  // Devices used in multi-device modes (single-device modes use 1).
  int num_devices = 2;
  std::uint64_t pm_size = 64ull << 20;
  // Devices interleave at DIMM-like granularity, so persistent objects and
  // pages span devices (the multi-device scenario of Sections 2.3/3.2).
  std::uint64_t interleave_stripe = 256;
  int max_threads = 16;
  // PPO enforcement. Setting this to false reproduces the unsound "naive
  // offload" of Section 2.3: CPU accesses do not stall behind conflicting
  // in-flight NDP work and commits are not synchronized across devices.
  bool enforce_ppo = true;
  // Functional crash bookkeeping (disable for pure-performance benchmarks).
  bool retain_crash_state = true;
  double pending_line_survival = 0.5;
  // Fault injection for the crash fuzzer's self-test: when true, recovery
  // skips every replay pass -- the hardware side (the crash model's
  // sync-frontier repair, which is the Section 5.3.3 replay of the request
  // FIFO) and the mechanism side (undo rollback, redo reapply, checkpoint
  // restore, shadow switch roll-forward), which scrub their logs without
  // applying them. A deliberately broken recovery the fuzzer must catch.
  // Never set in production configurations.
  bool skip_recovery_replay = false;
  // Device geometry and platform cost constants. The default reproduces the
  // seed platform (Table 3 geometry, VCU118 calibration) bit-for-bit; load a
  // config file into it to evaluate a different design point. Per-device
  // unit count and FIFO depth live here (hw.units_per_device, hw.fifo_depth)
  // so the runtime, the fabric and the sweep tool all read one geometry.
  hwmodel::HwConfig hw;

  // Effective device count for the selected mode.
  int EffectiveDevices() const {
    switch (mode) {
      case ExecMode::kCpuBaseline:
      case ExecMode::kNdpSingleDevice:
        return 1;
      case ExecMode::kNdpMultiSwSync:
      case ExecMode::kNdpMultiDelayed:
        return num_devices;
    }
    return 1;
  }

  bool UsesNdp() const { return mode != ExecMode::kCpuBaseline; }
  bool MultiDevice() const { return EffectiveDevices() > 1; }
};

}  // namespace nearpm

#endif  // SRC_CORE_OPTIONS_H_
