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
//   --mechanism=NAME    logging | cow | checkpointing (default logging)
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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/pmlib/provider.h"
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
  std::string mechanism = "logging";
  std::string mode = "nearpm_md";
  std::uint64_t ops = 400;
  int threads = 1;
  int units = 4;  // reports the effective value after geometry resolution
  bool units_given = false;
  std::string hw_config;
  std::uint64_t initial_keys = 500;
  std::uint64_t seed = 7;
  std::string trace_in;
  std::string report_out;
  std::string folded_out;
  std::string profile_out;
  std::string raw_out;
  std::string trace_out;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload=NAME] [--mechanism=NAME] [--mode=NAME]\n"
      "          [--ops=N] [--threads=N] [--units=N] [--hw-config=FILE]\n"
      "          [--initial-keys=N]\n"
      "          [--seed=N] [--trace-in=FILE] [--report-out=FILE]\n"
      "          [--folded-out=FILE] [--profile-out=FILE] [--raw-out=FILE]\n"
      "          [--trace-out=FILE]\n",
      argv0);
  return 2;
}

// Writes `text` to `path`, with "-" (or stdout default) meaning stdout.
bool WriteOutput(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
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
         cli.mechanism + "\", \"mode\": \"" + cli.mode +
         "\", \"ops\": " + std::to_string(cli.ops) +
         ", \"threads\": " + std::to_string(cli.threads) +
         ", \"units_per_device\": " + std::to_string(cli.units) + hw +
         ", \"initial_keys\": " + std::to_string(cli.initial_keys) +
         ", \"seed\": " + std::to_string(cli.seed) + "}";
}

// Runs the configured workload with a trace attached; mirrors the bench
// harness's measurement loop (setup excluded from nothing here: the profile
// wants the whole run, setup included, since attribution is per-request).
int RunWorkloadTraced(CliOptions& cli, std::vector<TraceEvent>* events) {
  const auto mechanism = MechanismFromName(cli.mechanism);
  if (!mechanism.ok()) {
    std::fprintf(stderr, "unknown mechanism %s\n", cli.mechanism.c_str());
    return 2;
  }
  const auto mode = ExecModeFromName(cli.mode);
  if (!mode.ok()) {
    std::fprintf(stderr, "unknown mode %s\n", cli.mode.c_str());
    return 2;
  }
  auto workload = CreateWorkload(cli.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", cli.workload.c_str());
    return 2;
  }

  TraceRecorder recorder;
  RuntimeOptions opts;
  opts.mode = *mode;
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
  opts.max_threads = cli.threads;
  opts.pm_size = 512ull << 20;
  opts.retain_crash_state = false;
  Runtime rt(opts);
  rt.AttachTrace(&recorder);
  PoolArena arena(0);

  WorkloadConfig wc;
  wc.mechanism = *mechanism;
  wc.threads = cli.threads;
  wc.initial_keys = cli.initial_keys;
  wc.seed = cli.seed;
  Status st = workload->Setup(rt, arena, wc);
  if (!st.ok()) {
    std::fprintf(stderr, "setup(%s) failed: %s\n", cli.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  rt.DrainDevices(0);

  Rng rng(cli.seed * 31 + 1);
  for (std::uint64_t i = 0; i < cli.ops; ++i) {
    const ThreadId t = static_cast<ThreadId>(i % cli.threads);
    st = workload->RunOp(t, rng);
    if (!st.ok()) {
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   st.ToString().c_str());
      return 1;
    }
  }
  for (int t = 0; t < cli.threads; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }

  *events = recorder.Snapshot();
  return 0;
}

int ProfMain(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (MatchFlag(argv[i], "--workload", &value)) {
      cli.workload = value;
    } else if (MatchFlag(argv[i], "--mechanism", &value)) {
      cli.mechanism = value;
    } else if (MatchFlag(argv[i], "--mode", &value)) {
      cli.mode = value;
    } else if (MatchFlag(argv[i], "--ops", &value)) {
      if (!ParseUint(value, &cli.ops)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--threads", &value)) {
      if (!ParseCount(value, &cli.threads)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--units", &value)) {
      if (!ParseCount(value, &cli.units)) return Usage(argv[0]);
      cli.units_given = true;
    } else if (MatchFlag(argv[i], "--hw-config", &value)) {
      cli.hw_config = value;
    } else if (MatchFlag(argv[i], "--initial-keys", &value)) {
      if (!ParseUint(value, &cli.initial_keys)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--seed", &value)) {
      if (!ParseUint(value, &cli.seed)) return Usage(argv[0]);
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
    std::ifstream in(cli.trace_in);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", cli.trace_in.c_str());
      return 1;
    }
    std::string error;
    if (!ReadRawTrace(in, &events, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
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
    std::ofstream out(cli.raw_out, std::ios::trunc);
    WriteRawTrace(events, out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.raw_out.c_str());
      return 1;
    }
  }
  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out, std::ios::trunc);
    WriteChromeTrace(events, out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.trace_out.c_str());
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
