// nearpm_fuzz: command-line driver for the crash-state fuzzer.
//
// Modes (combinable flags, one run = one mode):
//
//   --seeds=N            randomized deep sweep over N seeds (default 20)
//   --systematic=OPS     exhaustive crash-point sweep of one OPS-long
//                        schedule per configuration
//   --replay=SEED:CASE   re-run exactly one sweep case (the fuzzer's output
//                        names failures this way)
//   --corpus=DIR         replay every minimized repro under DIR and check
//                        its recorded expectation
//   --repl               systematic replicated-cluster sweep instead of the
//                        single-machine fuzzer: every stop phase of the
//                        replicated commit x every non-empty node subset
//                        power-failed, for --protocol=pb|redo|all;
//                        --break-intent-redo / --skip-redo-persist seed the
//                        recovery/persist ablations (combine with
//                        --expect-failures for the CI teeth check)
//
// Configuration selection: --mechanism / --mode accept one canonical name
// or "all" (default), --enforce-ppo=0 runs the Section 2.3 ablation,
// --break-recovery fault-injects the hardware recovery. Failing schedules
// are shrunk to a minimal repro; --out=DIR persists them as corpus JSON.
// --expect-failures inverts the exit code: the run succeeds only if the
// fuzzer caught at least one violation in every configuration (CI uses this
// to prove the oracle has teeth).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/files.h"
#include "src/fuzz/crash_fuzzer.h"
#include "src/fuzz/repl_fuzzer.h"
#include "src/fuzz/repro.h"
#include "tools/flags.h"

namespace nearpm {
namespace fuzz {
namespace {

struct CliOptions {
  std::uint64_t seeds = 20;
  std::uint64_t first_seed = 1;
  int cases_per_seed = 3;
  std::uint64_t systematic_ops = 0;  // 0 = off
  std::size_t max_candidates = 24;
  std::string mechanism = "all";
  std::string mode = "all";
  bool enforce_ppo = true;
  bool break_recovery = false;
  bool expect_failures = false;
  bool have_replay = false;
  std::uint64_t replay_seed = 0;
  std::uint64_t replay_case = 0;
  std::string corpus_dir;
  std::string out_dir;
  int max_shrinks = 3;  // shrunk + reported failures per configuration
  bool repl = false;
  std::string protocol = "all";
  int repl_groups = 2;
  int repl_replicas = 2;
  bool break_intent_redo = false;
  bool skip_redo_persist = false;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds=N] [--first-seed=S] [--cases-per-seed=K]\n"
      "          [--systematic=OPS] [--max-candidates=N]\n"
      "          [--mechanism=logging|redo_logging|checkpointing|"
      "shadow_paging|all]\n"
      "          [--mode=baseline|nearpm_sd|nearpm_md_swsync|nearpm_md|all]\n"
      "          [--enforce-ppo=0|1] [--break-recovery]\n"
      "          [--replay=SEED:CASE] [--corpus=DIR] [--out=DIR]\n"
      "          [--expect-failures]\n"
      "          [--repl [--protocol=pb|redo|all] [--repl-groups=G]\n"
      "           [--repl-replicas=K] [--break-intent-redo]\n"
      "           [--skip-redo-persist]]\n",
      argv0);
  return 2;
}

std::string MaskToString(const std::vector<bool>& mask) {
  std::string s;
  s.reserve(mask.size());
  for (const bool b : mask) {
    s.push_back(b ? '1' : '0');
  }
  return s.empty() ? "-" : s;
}

void PrintCase(const char* tag, const FuzzCase& c, const CaseResult& r) {
  std::printf("  %s seed=%" PRIu64 " ops=%" PRIu64 " crash_step=%" PRIu64
              "%s time=%" PRIu64 " mask=%s: %s%s%s\n",
              tag, c.seed, c.total_ops, c.crash_step, c.mid_op ? "m" : "c",
              c.crash_time, MaskToString(c.line_survival).c_str(),
              FailureKindName(r.failure), r.detail.empty() ? "" : ": ",
              r.detail.c_str());
}

// Saves `repro` under --out (when set) and reports where it went.
void SaveToOut(const CliOptions& cli, const CrashRepro& repro) {
  if (cli.out_dir.empty()) {
    return;
  }
  const StatusOr<std::string> path = SaveRepro(repro, cli.out_dir);
  if (path.ok()) {
    std::printf("  repro: %s\n", path->c_str());
  } else {
    std::fprintf(stderr, "  cannot save repro: %s\n",
                 path.status().ToString().c_str());
  }
}

// A sweep that enumerated nothing proves nothing: a broken case generator
// must not pass as a green run.
bool RanCases(const SweepStats& total) {
  if (total.cases == 0) {
    std::fprintf(stderr, "the sweep enumerated no cases\n");
    return false;
  }
  return true;
}

int ReplayCorpus(const CliOptions& cli) {
  const std::vector<std::string> files = ListCorpus(cli.corpus_dir);
  if (files.empty()) {
    std::fprintf(stderr, "no corpus files under %s\n", cli.corpus_dir.c_str());
    return 1;
  }
  int bad = 0;
  for (const std::string& path : files) {
    auto repro = LoadRepro(path);
    if (!repro.ok()) {
      std::printf("ERROR %s: %s\n", path.c_str(),
                  repro.status().ToString().c_str());
      ++bad;
      continue;
    }
    const CaseResult r = ReplayRepro(*repro);
    const bool pass = MatchesExpectation(*repro, r);
    std::printf("%s %s (%s/%s expect=%s got=%s)\n", pass ? "OK  " : "FAIL",
                path.c_str(), MechanismName(repro->mechanism),
                ExecModeName(repro->mode), repro->expect.c_str(),
                FailureKindName(r.failure));
    if (!pass) {
      if (!r.detail.empty()) {
        std::printf("  %s\n", r.detail.c_str());
      }
      ++bad;
    }
  }
  std::printf("corpus: %zu repros, %d failures\n", files.size(), bad);
  return bad == 0 ? 0 : 1;
}

// Systematic replicated-cluster sweep: every stop phase of the replicated
// commit x every targetable ordinal x every non-empty crashed-node subset,
// for each selected protocol. Failures are already minimal schedules (one
// txn, one stop point, one subset), so they are saved to --out directly.
int RunReplSweep(const CliOptions& cli) {
  std::vector<repl::ReplProtocol> protocols;
  if (cli.protocol == "all") {
    protocols = repl::ReplProtocolNames().All();
  } else {
    auto p = repl::ReplProtocolFromName(cli.protocol);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 2;
    }
    protocols = {*p};
  }

  SweepStats total;
  int configs_with_failures = 0;
  for (const repl::ReplProtocol protocol : protocols) {
    ReplFuzzConfig config;
    config.groups = cli.repl_groups;
    config.replicas = cli.repl_replicas;
    config.protocol = protocol;
    config.enforce_ppo = cli.enforce_ppo;
    config.break_recovery = cli.break_recovery;
    config.break_intent_redo = cli.break_intent_redo;
    config.skip_redo_persist = cli.skip_redo_persist;
    ReplFuzzer fuzzer(config);

    std::vector<Failure<ReplFuzzCase>> failures;
    const SweepStats stats = fuzzer.Systematic(cli.first_seed, &failures);
    total.cases += stats.cases;
    total.failures += stats.failures;
    if (stats.failures > 0) {
      ++configs_with_failures;
    }
    std::printf("[repl/%s %dx%d] %" PRIu64 " cases, %" PRIu64 " failures\n",
                repl::ReplProtocolName(protocol), cli.repl_groups,
                cli.repl_replicas, stats.cases, stats.failures);
    int shown = 0;
    for (const Failure<ReplFuzzCase>& f : failures) {
      if (shown >= cli.max_shrinks) {
        std::printf("  (%zu more failures not shown)\n",
                    failures.size() - static_cast<std::size_t>(shown));
        break;
      }
      ++shown;
      std::printf("  FAIL seed=%" PRIu64 " phase=%s ordinal=%d mask=%" PRIu64
                  " %s: %s: %s\n",
                  f.fuzz_case.seed,
                  ReplStopPhaseNames().Name(f.fuzz_case.phase),
                  f.fuzz_case.ordinal, f.fuzz_case.crash_mask,
                  f.fuzz_case.lines_survive ? "surv" : "drop",
                  FailureKindName(f.result.failure), f.result.detail.c_str());
      SaveToOut(cli, fuzzer.ToRepro(f.fuzz_case, "violation", f.result.detail));
    }
  }

  std::printf("total: %" PRIu64 " cases, %" PRIu64
              " failures across %zu protocol(s)\n",
              total.cases, total.failures, protocols.size());
  if (!RanCases(total)) {
    return 1;
  }
  if (cli.expect_failures) {
    if (configs_with_failures == static_cast<int>(protocols.size())) {
      return 0;
    }
    std::fprintf(stderr,
                 "expected violations in every protocol, but %zu stayed "
                 "green\n",
                 protocols.size() - static_cast<std::size_t>(
                                        configs_with_failures));
    return 1;
  }
  return total.failures == 0 ? 0 : 1;
}

}  // namespace

int FuzzMain(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (MatchFlag(arg, "--seeds", &value)) {
      if (!ParseUint(value, &cli.seeds)) return Usage(argv[0]);
    } else if (MatchFlag(arg, "--first-seed", &value)) {
      if (!ParseUint(value, &cli.first_seed)) return Usage(argv[0]);
    } else if (MatchFlag(arg, "--cases-per-seed", &value)) {
      if (!ParseCount(value, &cli.cases_per_seed)) return Usage(argv[0]);
    } else if (MatchFlagOrBare(arg, "--systematic", &value)) {
      cli.systematic_ops = 6;
      if (value != nullptr && !ParseUint(value, &cli.systematic_ops)) {
        return Usage(argv[0]);
      }
    } else if (MatchFlag(arg, "--max-candidates", &value)) {
      std::uint64_t n = 0;
      if (!ParseUint(value, &n)) return Usage(argv[0]);
      cli.max_candidates = static_cast<std::size_t>(n);
    } else if (MatchFlag(arg, "--mechanism", &value)) {
      cli.mechanism = value;
    } else if (MatchFlag(arg, "--mode", &value)) {
      cli.mode = value;
    } else if (MatchFlag(arg, "--enforce-ppo", &value)) {
      cli.enforce_ppo = std::strcmp(value, "0") != 0;
    } else if (MatchFlagOrBare(arg, "--break-recovery", &value)) {
      cli.break_recovery = true;
    } else if (MatchFlagOrBare(arg, "--expect-failures", &value)) {
      cli.expect_failures = true;
    } else if (MatchFlag(arg, "--replay", &value)) {
      const char* colon = std::strchr(value, ':');
      if (colon == nullptr) return Usage(argv[0]);
      const std::string seed_text(value, colon);
      if (!ParseUint(seed_text.c_str(), &cli.replay_seed) ||
          !ParseUint(colon + 1, &cli.replay_case)) {
        return Usage(argv[0]);
      }
      cli.have_replay = true;
    } else if (MatchFlag(arg, "--corpus", &value)) {
      cli.corpus_dir = value;
    } else if (MatchFlag(arg, "--out", &value)) {
      cli.out_dir = value;
    } else if (MatchFlagOrBare(arg, "--repl", &value)) {
      cli.repl = true;
    } else if (MatchFlag(arg, "--protocol", &value)) {
      cli.protocol = value;
    } else if (MatchFlag(arg, "--repl-groups", &value)) {
      std::uint64_t n = 0;
      if (!ParseUint(value, &n) || n == 0 || n > 64) return Usage(argv[0]);
      cli.repl_groups = static_cast<int>(n);
    } else if (MatchFlag(arg, "--repl-replicas", &value)) {
      std::uint64_t n = 0;
      if (!ParseUint(value, &n) || n == 0 || n > 64) return Usage(argv[0]);
      cli.repl_replicas = static_cast<int>(n);
    } else if (MatchFlagOrBare(arg, "--break-intent-redo", &value)) {
      cli.break_intent_redo = true;
    } else if (MatchFlagOrBare(arg, "--skip-redo-persist", &value)) {
      cli.skip_redo_persist = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage(argv[0]);
    }
  }

  if (!cli.corpus_dir.empty()) {
    return ReplayCorpus(cli);
  }
  if (cli.repl) {
    return RunReplSweep(cli);
  }

  std::vector<Mechanism> mechanisms;
  if (cli.mechanism == "all") {
    mechanisms = MechanismNames().All();
  } else {
    auto m = MechanismFromName(cli.mechanism);
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
      return Usage(argv[0]);
    }
    mechanisms = {*m};
  }
  std::vector<ExecMode> modes;
  if (cli.mode == "all") {
    modes = ExecModeNames().All();
  } else {
    auto m = ExecModeFromName(cli.mode);
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
      return Usage(argv[0]);
    }
    modes = {*m};
  }

  SweepStats total;
  int configs_with_failures = 0;
  int configs = 0;
  for (const Mechanism mech : mechanisms) {
    for (const ExecMode mode : modes) {
      ++configs;
      FuzzConfig config;
      config.mechanism = mech;
      config.mode = mode;
      config.enforce_ppo = cli.enforce_ppo;
      config.break_recovery = cli.break_recovery;
      CrashFuzzer fuzzer(config);

      std::vector<Failure<FuzzCase>> failures;
      SweepStats stats;
      if (cli.have_replay) {
        const FuzzCase c =
            fuzzer.BuildSweepCase(cli.replay_seed, cli.replay_case);
        const CaseResult r = fuzzer.Run(c);
        ++stats.cases;
        if (!r.ok()) {
          ++stats.failures;
          failures.push_back(Failure<FuzzCase>{c, r});
        }
        PrintCase(r.ok() ? "ok" : "FAIL", c, r);
        if (r.ok()) {
          // A green replayed case saved explicitly becomes a regression
          // anchor: the corpus test keeps proving it recovers cleanly.
          SaveToOut(cli, fuzzer.ToRepro(c, "recoverable",
                                        "sweep regression anchor"));
        }
      } else {
        if (cli.systematic_ops > 0) {
          const SweepStats s = fuzzer.Systematic(
              cli.first_seed, cli.systematic_ops, cli.max_candidates,
              &failures);
          stats.cases += s.cases;
          stats.failures += s.failures;
        }
        if (cli.seeds > 0) {
          const SweepStats s = fuzzer.RandomSweep(
              cli.first_seed, cli.seeds, cli.cases_per_seed, &failures);
          stats.cases += s.cases;
          stats.failures += s.failures;
        }
      }
      total.cases += stats.cases;
      total.failures += stats.failures;
      if (stats.failures > 0) {
        ++configs_with_failures;
      }

      std::printf("[%s/%s] %" PRIu64 " cases, %" PRIu64 " failures\n",
                  MechanismName(mech), ExecModeName(mode), stats.cases,
                  stats.failures);
      int shrunk = 0;
      for (const Failure<FuzzCase>& f : failures) {
        if (shrunk >= cli.max_shrinks) {
          std::printf("  (%zu more failures not shown)\n",
                      failures.size() - static_cast<std::size_t>(shrunk));
          break;
        }
        ++shrunk;
        PrintCase("FAIL", f.fuzz_case, f.result);
        CaseResult min_result;
        const FuzzCase minimal = fuzzer.Shrink(f.fuzz_case, &min_result);
        PrintCase("  min", minimal, min_result);
        if (!min_result.ok()) {
          SaveToOut(cli,
                    fuzzer.ToRepro(minimal, "violation", min_result.detail));
        }
      }
    }
  }

  std::printf("total: %" PRIu64 " cases, %" PRIu64
              " failures across %d configurations\n",
              total.cases, total.failures, configs);
  if (!RanCases(total)) {
    return 1;
  }
  if (cli.expect_failures) {
    // Teeth check: every configuration must have tripped the oracle.
    if (configs_with_failures == configs) {
      return 0;
    }
    std::fprintf(stderr,
                 "expected violations in every configuration, but %d of %d "
                 "stayed green\n",
                 configs - configs_with_failures, configs);
    return 1;
  }
  return total.failures == 0 ? 0 : 1;
}

}  // namespace fuzz
}  // namespace nearpm

int main(int argc, char** argv) {
  return nearpm::fuzz::FuzzMain(argc, argv);
}
