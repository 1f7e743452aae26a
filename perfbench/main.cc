// nearpm_perfbench: runs one benchmark workload and prints its metrics.
//
//   nearpm_perfbench --workload=paper-cc|kv-closed|repl-txn --seed=N
//                    --seconds=S --trace=0|1 [--out-dir=DIR]
//
// --trace=0 runs one untraced pass. --trace=1 runs the untraced pass and
// then a traced pass of the same workload and seed: end-to-end metrics come
// from the untraced pass, per-layer metrics (named <layer>.<metric>) from
// the traced one, and bench.trace_overhead_frac is the throughput the
// tracing cost. The traced pass writes its spans to
// DIR/spans-<workload>-<seed>.tsv.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric with its unit. Exit code 1 on any failed check, 2 on bad
// arguments.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "report.h"

namespace perfbench {
namespace {

struct Cli {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

bool ParseUint(const std::string& text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

Report RunPass(const std::string& workload, const PassArgs& args) {
  if (workload == "paper-cc") {
    return RunPaperCc(args);
  }
  if (workload == "kv-closed") {
    return RunKvClosed(args);
  }
  return RunReplTxn(args);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Usage() {
  std::fprintf(stderr,
               "usage: nearpm_perfbench --workload=paper-cc|kv-closed|repl-txn "
               "--seed=N --seconds=S --trace=0|1 [--out-dir=DIR]\n");
  return 2;
}

int Run(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    std::uint64_t n = 0;
    if (Flag(argv[i], "--workload", &value)) {
      cli.workload = value;
    } else if (Flag(argv[i], "--seed", &value) && ParseUint(value, &n)) {
      cli.seed = n;
    } else if (Flag(argv[i], "--seconds", &value) && ParseUint(value, &n) &&
               n >= 1 && n <= 600) {
      cli.seconds = static_cast<int>(n);
    } else if (Flag(argv[i], "--trace", &value) && ParseUint(value, &n) &&
               n <= 1) {
      cli.trace = n == 1;
    } else if (Flag(argv[i], "--out-dir", &value)) {
      cli.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (cli.workload != "paper-cc" && cli.workload != "kv-closed" &&
      cli.workload != "repl-txn") {
    return Usage();
  }

  PassArgs args;
  args.seed = cli.seed;
  args.seconds = cli.seconds;
  std::printf("== %s seed=%" PRIu64 " seconds=%d untraced pass\n",
              cli.workload.c_str(), cli.seed, cli.seconds);
  std::fflush(stdout);
  Report report = RunPass(cli.workload, args);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (cli.trace) {
    std::printf("== %s traced pass\n", cli.workload.c_str());
    std::fflush(stdout);
    SpanSet spans(/*keep_per_thread=*/50000);
    const std::int64_t epoch = NowNs();
    args.spans = &spans;
    Report traced = RunPass(cli.workload, args);
    spans.Summarize(traced);
    const double* plain = report.Find("ops_per_s");
    const double* with_spans = traced.Find("ops_per_s");
    traced.Set("bench.trace_overhead_frac",
               plain != nullptr && with_spans != nullptr
                   ? Ratio(*plain - *with_spans, *plain)
                   : 0,
               "frac");
    report.MergeLayers(traced);
    std::error_code ec;
    std::filesystem::create_directories(cli.out_dir, ec);
    const std::string path = cli.out_dir + "/spans-" + cli.workload + "-" +
                             std::to_string(cli.seed) + ".tsv";
    if (!spans.WriteFile(path, epoch)) {
      report.Fail("cannot write " + path);
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }

  std::printf("failed_frac %.6g (%" PRIu64 " of %" PRIu64 " checked operations)\n",
              Ratio(static_cast<double>(report.failed()),
                    static_cast<double>(report.attempted())),
              report.failed(), report.attempted());
  report.PrintHuman(stdout);
  report.PrintJson(stdout);
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
