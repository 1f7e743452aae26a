// nearpm_litmus: litmus-test conformance driver for the executable PPO
// specification (src/spec).
//
// Modes (one per run):
//
//   --generate           print the deterministic litmus batch and exit
//   --corpus=DIR         replay every litmus repro JSON under DIR and check
//                        that it still reproduces its recorded disagreement
//                        (and that the healthy configuration stays clean)
//   --replay=FILE        replay exactly one repro file
//   (default)            conformance run: every program of the batch, every
//                        prefix, crash-point sweep x survival masks, checker
//                        and sanitizer differentials
//
// Batch selection: --seed (default 1) and --count (default 64) feed the
// deterministic generator; --systematic raises the batch to at least 500
// programs (the CI gate). --enforce=both|on|off picks the runtime legs.
//
// Teeth: --mutate-spec=NAME breaks the spec (atomic-requests,
// writes-durable, no-races), --weaken-checker=MASK disables PpoChecker
// invariants (bit i-1 = invariant i; only bits 1..3 have teeth on a healthy
// machine). --expect-disagreements inverts the exit code: the run succeeds
// only if at least one disagreement was found, shrunk and (with --out=DIR)
// persisted -- CI uses this to prove the differential oracle can actually
// catch a divergent implementation.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/files.h"
#include "src/spec/conformance.h"
#include "src/spec/litmus.h"
#include "src/spec/model.h"
#include "tools/flags.h"

namespace nearpm {
namespace spec {
namespace {

struct CliOptions {
  bool generate = false;
  std::string corpus_dir;
  std::string replay_file;
  std::uint64_t seed = 1;
  std::uint64_t count = 64;
  bool systematic = false;
  std::string enforce = "both";
  std::string mutate_spec = "none";
  std::uint64_t weaken_checker = 0;
  bool expect_disagreements = false;
  std::string out_dir;
  std::uint64_t max_candidates = 64;
  std::uint64_t max_masks = 6;
  bool recovery = true;
  std::uint64_t max_shrinks = 2;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--generate] [--corpus=DIR] [--replay=FILE]\n"
               "          [--seed=N] [--count=N] [--systematic]\n"
               "          [--enforce=both|on|off] [--mutate-spec=NAME]\n"
               "          [--weaken-checker=MASK] [--expect-disagreements]\n"
               "          [--out=DIR] [--max-candidates=N] [--max-masks=N]\n"
               "          [--no-recovery] [--max-shrinks=N]\n",
               argv0);
  return 2;
}

// Replays one repro file; returns whether it still holds.
bool ReplayOne(const std::string& path) {
  const StatusOr<LitmusRepro> repro = LoadLitmusRepro(path);
  if (!repro.ok()) {
    std::fprintf(stderr, "%s\n", repro.status().ToString().c_str());
    return false;
  }
  const Status status = ReplayLitmusRepro(*repro);
  if (!status.ok()) {
    std::printf("FAIL  %s: %s\n", path.c_str(), status.ToString().c_str());
    return false;
  }
  std::printf("ok    %s (%s, %s)\n", path.c_str(), repro->name.c_str(),
              DisagreementKindName(repro->kind));
  return true;
}

int RunCorpus(const CliOptions& cli) {
  const std::vector<std::string> files =
      cli.replay_file.empty() ? ListCorpus(cli.corpus_dir)
                              : std::vector<std::string>{cli.replay_file};
  std::uint64_t failures = 0;
  for (const std::string& path : files) {
    if (!ReplayOne(path)) {
      ++failures;
    }
  }
  std::printf("litmus corpus: %zu replayed, %llu failed\n", files.size(),
              static_cast<unsigned long long>(failures));
  if (files.empty()) {
    std::fprintf(stderr, "no repro files found\n");
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

int RunConformance(const CliOptions& cli) {
  SpecMutation mutation = SpecMutation::kNone;
  if (!SpecMutationFromString(cli.mutate_spec, &mutation)) {
    std::fprintf(stderr, "unknown --mutate-spec=%s\n", cli.mutate_spec.c_str());
    return 2;
  }
  std::vector<bool> legs;
  if (cli.enforce == "both") {
    legs = {true, false};
  } else if (cli.enforce == "on") {
    legs = {true};
  } else if (cli.enforce == "off") {
    legs = {false};
  } else {
    std::fprintf(stderr, "unknown --enforce=%s\n", cli.enforce.c_str());
    return 2;
  }

  const std::size_t min_programs =
      cli.systematic ? std::max<std::size_t>(cli.count, 500) : cli.count;
  const std::vector<LitmusProgram> batch =
      GenerateGrid(cli.seed, min_programs);
  std::printf(
      "litmus conformance: %zu programs, legs=%s, mutation=%s, "
      "weaken-checker=0x%llx\n",
      batch.size(), cli.enforce.c_str(), SpecMutationName(mutation),
      static_cast<unsigned long long>(cli.weaken_checker));

  ConformanceStats stats;
  std::uint64_t disagreeing_programs = 0;
  std::uint64_t shrunk = 0;
  bool shrink_budget_left = true;
  for (const LitmusProgram& program : batch) {
    for (const bool enforce : legs) {
      ConformanceConfig config;
      config.enforce = enforce;
      config.mutation = mutation;
      config.weaken_checker = static_cast<std::uint32_t>(cli.weaken_checker);
      config.max_crash_candidates = cli.max_candidates;
      config.max_masks = cli.max_masks;
      config.check_recovery = cli.recovery;
      const std::vector<Disagreement> found =
          CheckProgram(program, config, &stats);
      if (found.empty()) {
        continue;
      }
      ++disagreeing_programs;
      const Disagreement& first = found.front();
      std::printf("%s %s [enforce=%d prefix=%zu] %s: %s\n",
                  cli.expect_disagreements ? "teeth" : "DISAGREE",
                  program.name.c_str(), enforce ? 1 : 0, first.prefix_len,
                  DisagreementKindName(first.kind), first.detail.c_str());
      if (shrink_budget_left && shrunk < cli.max_shrinks) {
        const LitmusProgram small =
            ShrinkDisagreement(program, config, first.kind);
        ++shrunk;
        std::printf("  shrunk to: %s\n", small.Text().c_str());
        Disagreement kept = first;
        for (const Disagreement& d : CheckProgram(small, config, nullptr)) {
          if (d.kind == first.kind) {
            kept = d;
            break;
          }
        }
        if (!cli.out_dir.empty()) {
          const StatusOr<std::string> path =
              SaveLitmusRepro(MakeRepro(small, config, kept), cli.out_dir);
          if (path.ok()) {
            std::printf("  wrote %s\n", path->c_str());
          } else {
            std::fprintf(stderr, "%s\n", path.status().ToString().c_str());
          }
        }
      }
      break;  // one disagreeing leg per program is enough signal
    }
    // Teeth mode only needs enough repros to prove the oracle bites.
    if (cli.expect_disagreements && shrunk >= cli.max_shrinks) {
      shrink_budget_left = false;
      break;
    }
  }

  std::printf(
      "litmus conformance: %llu programs, %llu prefixes, %llu crash states, "
      "%llu candidates truncated, %llu recovery runs, %llu checker "
      "violations, %llu sanitizer findings, %llu disagreeing programs\n",
      static_cast<unsigned long long>(stats.programs),
      static_cast<unsigned long long>(stats.prefixes),
      static_cast<unsigned long long>(stats.crash_states_checked),
      static_cast<unsigned long long>(stats.crash_candidates_truncated),
      static_cast<unsigned long long>(stats.recovery_runs),
      static_cast<unsigned long long>(stats.checker_violations),
      static_cast<unsigned long long>(stats.sanitizer_findings),
      static_cast<unsigned long long>(disagreeing_programs));
  if (cli.expect_disagreements) {
    if (disagreeing_programs == 0) {
      std::fprintf(stderr,
                   "expected disagreements but the differential found none: "
                   "the oracle has no teeth\n");
      return 1;
    }
    std::printf("teeth confirmed: the differential catches the fault\n");
    return 0;
  }
  return disagreeing_programs == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (MatchFlagOrBare(argv[i], "--generate", &value)) {
      cli.generate = true;
    } else if (MatchFlag(argv[i], "--corpus", &value)) {
      cli.corpus_dir = value;
    } else if (MatchFlag(argv[i], "--replay", &value)) {
      cli.replay_file = value;
    } else if (MatchFlag(argv[i], "--seed", &value)) {
      if (!ParseUint(value, &cli.seed)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--count", &value)) {
      if (!ParseUint(value, &cli.count)) return Usage(argv[0]);
    } else if (MatchFlagOrBare(argv[i], "--systematic", &value)) {
      cli.systematic = true;
    } else if (MatchFlag(argv[i], "--enforce", &value)) {
      cli.enforce = value;
    } else if (MatchFlag(argv[i], "--mutate-spec", &value)) {
      cli.mutate_spec = value;
    } else if (MatchFlag(argv[i], "--weaken-checker", &value)) {
      if (!ParseUint(value, &cli.weaken_checker)) return Usage(argv[0]);
    } else if (MatchFlagOrBare(argv[i], "--expect-disagreements", &value)) {
      cli.expect_disagreements = true;
    } else if (MatchFlag(argv[i], "--out", &value)) {
      cli.out_dir = value;
    } else if (MatchFlag(argv[i], "--max-candidates", &value)) {
      if (!ParseUint(value, &cli.max_candidates)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--max-masks", &value)) {
      if (!ParseUint(value, &cli.max_masks)) return Usage(argv[0]);
    } else if (MatchFlagOrBare(argv[i], "--no-recovery", &value)) {
      cli.recovery = false;
    } else if (MatchFlag(argv[i], "--max-shrinks", &value)) {
      if (!ParseUint(value, &cli.max_shrinks)) return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (cli.generate) {
    const std::size_t min_programs =
        cli.systematic ? std::max<std::size_t>(cli.count, 500) : cli.count;
    for (const LitmusProgram& p : GenerateGrid(cli.seed, min_programs)) {
      std::printf("%-24s %s\n", p.name.c_str(), p.Text().c_str());
    }
    return 0;
  }
  if (!cli.corpus_dir.empty() || !cli.replay_file.empty()) {
    return RunCorpus(cli);
  }
  return RunConformance(cli);
}

}  // namespace
}  // namespace spec
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::spec::Main(argc, argv); }
