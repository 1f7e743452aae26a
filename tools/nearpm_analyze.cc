// nearpm_analyze: PM-Sanitizer front end.
//
// Runs one workload configuration in the simulated platform with the eager
// persistency-bug analyzer attached (or replays a raw trace / a crash-repro
// corpus through the same rule engine) and reports NPM001-NPM006 findings as
// human text, machine JSON, or SARIF 2.1.0. Exit code is nonzero when
// unsuppressed findings remain -- unless --expect-findings inverts the
// contract (then a *clean* run is the failure; CI uses this to prove the
// analyzer still has teeth against the enforce_ppo=false ablation).
//
//   --workload=NAME     workload to run (default btree; see src/workloads)
//   --mechanism=NAME    logging | redo_logging | checkpointing |
//                       shadow_paging (default logging)
//   --mode=NAME         baseline | nearpm_sd | nearpm_md_swsync | nearpm_md
//                       (default nearpm_md)
//   --ops=N             operations after setup (default 200)
//   --threads=N         application threads (default 1)
//   --units=N           NearPM units per device (default 4)
//   --initial-keys=N    setup population (default 200)
//   --seed=N            workload RNG seed (default 7)
//   --enforce-ppo=0|1   disable/enable PPO ordering (default 1; 0 is the
//                       Section 2.3 ablation the analyzer must flag)
//   --trace-in=FILE     analyze a raw trace JSONL instead of running anything
//   --corpus=DIR        replay every crash repro under the rule engine
//                       (bank-kind live; serve-/repl-kind via per-machine
//                       trace snapshots)
//   --suppress=SPEC     suppression (repeatable): "NPM005" or "NPM005:file"
//   --expect-findings   exit 0 iff at least one unsuppressed finding fired
//   --sarif=FILE        write a SARIF 2.1.0 document ("-" = stdout)
//   --json-out=FILE     write the nearpm-analyze-v1 JSON report
//   --bench-json=FILE   write deterministic hook counters in google-benchmark
//                       JSON shape (tools/check_bench.py gates these)
//   --quiet             suppress the human text report on stdout
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analyze/sanitizer.h"
#include "src/analyze/trace_analyzer.h"
#include "src/core/runtime.h"
#include "src/common/files.h"
#include "src/fuzz/repro.h"
#include "src/trace/raw_trace.h"
#include "tools/flags.h"

namespace nearpm {
namespace {

struct CliOptions {
  std::string workload = "btree";
  WorkloadFlags run = {.ops = 200, .initial_keys = 200};
  int units = 4;
  bool enforce_ppo = true;
  std::string trace_in;
  std::string corpus;
  std::vector<std::string> suppressions;
  bool expect_findings = false;
  std::string sarif_out;
  std::string json_out;
  std::string bench_json;
  bool quiet = false;
};

int Usage(const char* argv0) {
  return WorkloadUsage(
      argv0,
      "[--workload=NAME] [--units=N] [--enforce-ppo=0|1]\n"
      "          [--trace-in=FILE] [--corpus=DIR] [--suppress=SPEC]...\n"
      "          [--expect-findings] [--sarif=FILE] [--json-out=FILE]\n"
      "          [--bench-json=FILE] [--quiet]");
}

// Deterministic hook counters in the google-benchmark JSON shape that
// tools/check_bench.py consumes: any accidental hook-count explosion (a hot
// path instrumented twice, a shadow map that stops being bounded) drifts a
// counter past the gate's tolerance.
std::string BenchJson(const CliOptions& cli, const analyze::PmSanitizer& san,
                      SimTime sim_ns) {
  const analyze::PmSanitizer::Stats& s = san.stats();
  std::string name = "analyze/" + cli.workload + "_" + cli.run.mechanism +
                     "_" + cli.run.mode;
  std::string out = "{\n  \"benchmarks\": [\n    {\n";
  out += "      \"name\": \"" + name + "\",\n";
  auto counter = [&out](const char* key, std::uint64_t v, bool last = false) {
    out += "      \"";
    out += key;
    out += "\": " + std::to_string(v) + (last ? "\n" : ",\n");
  };
  counter("san_writes", s.writes);
  counter("san_reads", s.reads);
  counter("san_flushes", s.flushes);
  counter("san_fences", s.fences);
  counter("san_ndp_commands", s.ndp_commands);
  counter("san_retires", s.retires);
  counter("shadow_lines_peak", s.shadow_lines_peak);
  counter("findings", san.sink().total_unsuppressed());
  counter("sim_ns", sim_ns, /*last=*/true);
  out += "    }\n  ]\n}\n";
  return out;
}

// Runs the configured workload with the sanitizer attached. Returns 0/1/2
// like main; `sim_ns` receives the final simulated time.
int RunWorkloadAnalyzed(const CliOptions& cli, analyze::PmSanitizer* san,
                        SimTime* sim_ns) {
  StatusOr<ResolvedWorkload> resolved =
      ResolveWorkloadFlags(cli.run, cli.workload);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().message().c_str());
    return 2;
  }
  RuntimeOptions& opts = resolved->options;
  opts.hw.units_per_device = cli.units;
  opts.retain_crash_state = true;  // the sanitizer needs retire bookkeeping
  opts.enforce_ppo = cli.enforce_ppo;
  Runtime rt(opts);
  rt.AttachSanitizer(san);
  const StatusOr<RuntimeStats> at_setup = DriveWorkload(rt, resolved->run);
  if (!at_setup.ok()) {
    return DriveFailure(at_setup.status());
  }
  *sim_ns = rt.Now(0);
  san->Finish(*sim_ns);
  return 0;
}

// Replays every repro in the corpus through the rule engine under the one
// analyzer corpus policy (fuzz::AnalyzeRepro): the bank scenario attaches
// the sanitizer live; serve and repl run one runtime per node, so each
// node's trace snapshot replays through it instead -- the same trace path
// as --trace-in.
int RunCorpus(const CliOptions& cli) {
  const std::vector<std::string> files = ListCorpus(cli.corpus);
  if (files.empty()) {
    std::fprintf(stderr, "no corpus files under %s\n", cli.corpus.c_str());
    return 1;
  }
  int failures = 0;
  std::size_t replayed = 0;
  for (const std::string& path : files) {
    auto repro = fuzz::LoadRepro(path);
    if (!repro.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   repro.status().ToString().c_str());
      ++failures;
      continue;
    }

    analyze::PmSanitizer san;
    for (const std::string& spec : cli.suppressions) {
      san.sink().Suppress(spec);
    }
    const fuzz::AnalyzerVerdict verdict = fuzz::AnalyzeRepro(*repro, &san);
    ++replayed;
    if (!verdict.matches_expectation) {
      std::fprintf(stderr,
                   "FAIL %s: replay verdict %s does not match "
                   "expect=%s\n",
                   path.c_str(),
                   verdict.result.ok()
                       ? "ok"
                       : fuzz::FailureKindName(verdict.result.failure),
                   repro->expect.c_str());
      ++failures;
      continue;
    }
    const bool ok = verdict.policy == "ok";
    if (!ok) {
      ++failures;
    }
    if (!cli.quiet || !ok) {
      std::printf("%-6s %s: %llu finding(s)\n", verdict.policy.c_str(),
                  path.c_str(),
                  static_cast<unsigned long long>(verdict.findings));
      if (verdict.findings > 0 && !cli.quiet) {
        std::fputs(san.sink().RenderText().c_str(), stdout);
      }
    }
  }
  std::printf("corpus: %zu replayed, %d failure(s)\n", replayed, failures);
  return failures == 0 ? 0 : 1;
}

int AnalyzeMain(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    std::uint64_t n = 0;
    const FlagMatch shared = ParseWorkloadFlag(argv[i], &cli.run);
    if (shared == FlagMatch::kBadValue) return Usage(argv[0]);
    if (shared == FlagMatch::kTaken) continue;
    if (MatchFlag(argv[i], "--workload", &value)) {
      cli.workload = value;
    } else if (MatchFlag(argv[i], "--units", &value)) {
      if (!ParseCount(value, &cli.units)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--enforce-ppo", &value)) {
      if (!ParseUint(value, &n) || n > 1) return Usage(argv[0]);
      cli.enforce_ppo = n != 0;
    } else if (MatchFlag(argv[i], "--trace-in", &value)) {
      cli.trace_in = value;
    } else if (MatchFlag(argv[i], "--corpus", &value)) {
      cli.corpus = value;
    } else if (MatchFlag(argv[i], "--suppress", &value)) {
      cli.suppressions.emplace_back(value);
    } else if (std::strcmp(argv[i], "--expect-findings") == 0) {
      cli.expect_findings = true;
    } else if (MatchFlag(argv[i], "--sarif", &value)) {
      cli.sarif_out = value;
    } else if (MatchFlag(argv[i], "--json-out", &value)) {
      cli.json_out = value;
    } else if (MatchFlag(argv[i], "--bench-json", &value)) {
      cli.bench_json = value;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      cli.quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  if (!cli.corpus.empty()) {
    return RunCorpus(cli);
  }

  analyze::PmSanitizer san;
  for (const std::string& spec : cli.suppressions) {
    if (!san.sink().Suppress(spec)) {
      std::fprintf(stderr, "bad suppression spec: %s\n", spec.c_str());
      return 2;
    }
  }

  SimTime sim_ns = 0;
  if (!cli.trace_in.empty()) {
    const StatusOr<std::vector<TraceEvent>> events =
        ReadRawTraceFile(cli.trace_in);
    if (!events.ok()) {
      std::fprintf(stderr, "%s\n", events.status().message().c_str());
      return 1;
    }
    for (const TraceEvent& e : *events) {
      sim_ns = std::max(sim_ns, e.ts + e.dur);
    }
    const analyze::TraceAnalysisStats ts =
        analyze::AnalyzeTrace(*events, &san);
    if (!cli.quiet) {
      std::printf("trace: %llu event(s) replayed, %llu ignored\n",
                  static_cast<unsigned long long>(ts.events),
                  static_cast<unsigned long long>(ts.ignored));
    }
  } else {
    const int rc = RunWorkloadAnalyzed(cli, &san, &sim_ns);
    if (rc != 0) {
      return rc;
    }
  }

  if (!cli.quiet) {
    std::fputs(san.sink().RenderText().c_str(), stdout);
  }
  if (!cli.sarif_out.empty() &&
      !WriteOutput(cli.sarif_out, san.sink().RenderSarif())) {
    return 1;
  }
  if (!cli.json_out.empty() &&
      !WriteOutput(cli.json_out, san.sink().RenderJson())) {
    return 1;
  }
  if (!cli.bench_json.empty() &&
      !WriteOutput(cli.bench_json, BenchJson(cli, san, sim_ns))) {
    return 1;
  }

  const std::uint64_t findings = san.sink().total_unsuppressed();
  if (cli.expect_findings) {
    if (findings == 0) {
      std::fprintf(stderr,
                   "FAIL: --expect-findings but the analyzer reported "
                   "nothing\n");
      return 1;
    }
    return 0;
  }
  return findings == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::AnalyzeMain(argc, argv); }
