// nearpm_prof: sim-time profiler front end.
//
// Runs one workload configuration in the simulated platform (or reads a raw
// trace captured earlier) and folds the trace through src/prof: per-request
// critical-path attribution, per-resource duty cycles and sampled occupancy.
// Exit code is nonzero when any request slice violates the attribution
// invariant (phase sum != end-to-end span) -- CI runs this as the profiler
// smoke gate.
//
//   --workload=NAME     workload to run (default btree; see src/workloads)
//   --mechanism=NAME    logging | redo_logging | checkpointing |
//                       shadow_paging (default logging)
//   --mode=NAME         baseline | nearpm_sd | nearpm_md_swsync | nearpm_md
//                       (default nearpm_md)
//   --ops=N             operations after setup (default 400)
//   --threads=N         application threads (default 1)
//   --hw-config=FILE    device geometry (hwmodel schema; default calibrated)
//   --units=N           NearPM units per device (overrides the geometry;
//                       default 4 when no --hw-config is given)
//   --initial-keys=N    setup population (default 500)
//   --seed=N            workload RNG seed (default 7)
//   --trace-in=FILE     profile this raw trace instead of running anything
//   --report-out=FILE   human attribution report (default: stdout)
//   --folded-out=FILE   folded stacks for flamegraph.pl / inferno
//   --profile-out=FILE  deterministic profile JSON (nearpm-profile-v1)
//   --raw-out=FILE      raw trace JSONL (re-consumable via --trace-in)
//   --trace-out=FILE    Chrome trace-event JSON (Perfetto)
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runtime.h"
#include "src/prof/profile.h"
#include "src/prof/report.h"
#include "src/trace/chrome_exporter.h"
#include "src/trace/raw_trace.h"
#include "src/workloads/workload.h"
#include "tools/flags.h"

namespace nearpm {
namespace {

struct CliOptions {
  std::string workload = "btree";
  WorkloadFlags run = {.ops = 400, .initial_keys = 500};
  int units = 4;  // reports the effective value after geometry resolution
  bool units_given = false;
  std::string hw_config;
  std::string trace_in;
  std::string report_out;
  std::string folded_out;
  std::string profile_out;
  std::string raw_out;
  std::string trace_out;
};

int Usage(const char* argv0) {
  return WorkloadUsage(
      argv0,
      "[--workload=NAME] [--units=N] [--hw-config=FILE]\n"
      "          [--trace-in=FILE] [--report-out=FILE] [--folded-out=FILE]\n"
      "          [--profile-out=FILE] [--raw-out=FILE] [--trace-out=FILE]");
}

std::string ConfigJson(const CliOptions& cli) {
  if (!cli.trace_in.empty()) {
    return "{\"source\": \"trace\"}";
  }
  // The hw_config key only appears when a geometry file was loaded, so the
  // default config line stays byte-identical to the committed baselines.
  const std::string hw = cli.hw_config.empty()
                             ? ""
                             : ", \"hw_config\": \"" + cli.hw_config + "\"";
  return "{\"workload\": \"" + cli.workload + "\", \"mechanism\": \"" +
         cli.run.mechanism + "\", \"mode\": \"" + cli.run.mode +
         "\", \"ops\": " + std::to_string(cli.run.ops) +
         ", \"threads\": " + std::to_string(cli.run.threads) +
         ", \"units_per_device\": " + std::to_string(cli.units) + hw +
         ", \"initial_keys\": " + std::to_string(cli.run.initial_keys) +
         ", \"seed\": " + std::to_string(cli.run.seed) + "}";
}

// Runs the configured workload with a recorder attached from the start: the
// profile wants the whole run, setup included, since attribution is
// per-request.
int RunWorkloadTraced(CliOptions& cli, std::vector<TraceEvent>* events) {
  StatusOr<ResolvedWorkload> resolved =
      ResolveWorkloadFlags(cli.run, cli.workload);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().message().c_str());
    return 2;
  }
  RuntimeOptions& opts = resolved->options;
  if (!cli.hw_config.empty()) {
    auto hw = hwmodel::LoadHwConfigFile(cli.hw_config);
    if (!hw.ok()) {
      std::fprintf(stderr, "--hw-config: %s\n", hw.status().ToString().c_str());
      return 2;
    }
    opts.hw = *hw;
  }
  if (cli.units_given || cli.hw_config.empty()) {
    opts.hw.units_per_device = cli.units;
  }
  cli.units = opts.hw.units_per_device;  // report the effective geometry

  TraceRecorder recorder;
  Runtime rt(opts);
  rt.AttachTrace(&recorder);
  const StatusOr<RuntimeStats> at_setup = DriveWorkload(rt, resolved->run);
  if (!at_setup.ok()) {
    return DriveFailure(at_setup.status());
  }
  *events = recorder.Snapshot();
  return 0;
}

int ProfMain(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    const FlagMatch shared = ParseWorkloadFlag(argv[i], &cli.run);
    if (shared == FlagMatch::kBadValue) return Usage(argv[0]);
    if (shared == FlagMatch::kTaken) continue;
    if (MatchFlag(argv[i], "--workload", &value)) {
      cli.workload = value;
    } else if (MatchFlag(argv[i], "--units", &value)) {
      if (!ParseCount(value, &cli.units)) return Usage(argv[0]);
      cli.units_given = true;
    } else if (MatchFlag(argv[i], "--hw-config", &value)) {
      cli.hw_config = value;
    } else if (MatchFlag(argv[i], "--trace-in", &value)) {
      cli.trace_in = value;
    } else if (MatchFlag(argv[i], "--report-out", &value)) {
      cli.report_out = value;
    } else if (MatchFlag(argv[i], "--folded-out", &value)) {
      cli.folded_out = value;
    } else if (MatchFlag(argv[i], "--profile-out", &value)) {
      cli.profile_out = value;
    } else if (MatchFlag(argv[i], "--raw-out", &value)) {
      cli.raw_out = value;
    } else if (MatchFlag(argv[i], "--trace-out", &value)) {
      cli.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  std::vector<TraceEvent> events;
  if (!cli.trace_in.empty()) {
    StatusOr<std::vector<TraceEvent>> read = ReadRawTraceFile(cli.trace_in);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.status().message().c_str());
      return 1;
    }
    events = std::move(*read);
  } else {
    const int rc = RunWorkloadTraced(cli, &events);
    if (rc != 0) {
      return rc;
    }
  }

  const Profile profile = BuildProfile(events);

  if (!WriteOutput(cli.report_out.empty() ? "-" : cli.report_out,
                   RenderReport(profile))) {
    return 1;
  }
  if (!cli.folded_out.empty() &&
      !WriteOutput(cli.folded_out, RenderFolded(profile))) {
    return 1;
  }
  if (!cli.profile_out.empty() &&
      !WriteOutput(cli.profile_out,
                   RenderProfileJson(profile, ConfigJson(cli)))) {
    return 1;
  }
  if (!cli.raw_out.empty()) {
    std::ostringstream raw;
    WriteRawTrace(events, raw);
    if (!WriteOutput(cli.raw_out, raw.str())) {
      return 1;
    }
  }
  if (!cli.trace_out.empty()) {
    std::ostringstream chrome;
    WriteChromeTrace(events, chrome);
    if (!WriteOutput(cli.trace_out, chrome.str())) {
      return 1;
    }
  }

  if (!profile.attribution_violations.empty()) {
    std::fprintf(stderr,
                 "FAIL: %zu request slice(s) violate the attribution "
                 "invariant (phase sum != end-to-end span)\n",
                 profile.attribution_violations.size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::ProfMain(argc, argv); }
