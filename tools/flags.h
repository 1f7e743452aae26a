// Command-line helpers shared by the tools and the bench binaries: strict
// unsigned and double parsers, comma lists, the two flag shapes the tools
// accept, the one output writer, and the workload flags of nearpm_prof,
// nearpm_analyze and nearpm_sweep.
#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/name_table.h"
#include "src/common/status.h"
#include "src/core/options.h"
#include "src/pmlib/provider.h"
#include "src/workloads/workload.h"

namespace nearpm {

// Decimal digits only -- no sign, no whitespace, not empty -- and the value
// must fit 64 bits. (strtoull alone reads "-1" as 2^64-1 and skips leading
// blanks.) A tool that gets false prints its usage line and exits 2.
inline bool ParseUint(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

// A positive count that fits an int (worker, shard, thread counts ...).
inline bool ParseCount(const char* text, int* out) {
  std::uint64_t n = 0;
  if (!ParseUint(text, &n) || n == 0 || n > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(n);
  return true;
}

// A finite decimal or scientific number, the whole text and nothing else:
// only digits, signs, '.', 'e' and 'E', so no blanks, hex (strtod reads
// "0x10" as 16), nan or inf, and no out-of-range value such as 1e999.
// Range checks beyond finiteness are the caller's.
inline bool ParseDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0' ||
      std::strspn(text, "0123456789+-.eE") != std::strlen(text)) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// The elements of a comma-separated list, empty ones included, so that the
// element parser rejects a stray comma.
inline std::vector<std::string> SplitList(const char* text) {
  std::vector<std::string> out(1);
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == ',') {
      out.emplace_back();
    } else {
      out.back() += *p;
    }
  }
  return out;
}

// A comma list whose every element `parse` accepts (ParseCount,
// ParseDouble ...); false leaves *out alone.
template <typename T>
bool ParseList(const char* text, bool (*parse)(const char*, T*),
               std::vector<T>* out) {
  std::vector<T> values;
  for (const std::string& element : SplitList(text)) {
    T value{};
    if (!parse(element.c_str(), &value)) {
      return false;
    }
    values.push_back(value);
  }
  *out = std::move(values);
  return true;
}

// "--name=VALUE": true with *value pointing at VALUE.
inline bool MatchFlag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

// "--name" or "--name=VALUE": true with *value nullptr for the bare form.
inline bool MatchFlagOrBare(const char* arg, const char* name,
                            const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Writes `text` to `path`, "-" meaning stdout; false (and why on stderr)
// when any byte of it could not be written.
inline bool WriteOutput(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// ---- The workload tools' shared flags ---------------------------------------

// --mechanism, --mode, --ops, --threads, --initial-keys and --seed, which
// nearpm_prof, nearpm_analyze and nearpm_sweep all take. Each tool sets its
// own ops and initial_keys defaults and parses its other flags itself.
struct WorkloadFlags {
  std::string mechanism = "logging";
  std::string mode = "nearpm_md";
  std::uint64_t ops = 0;
  int threads = 1;
  std::uint64_t initial_keys = 0;
  std::uint64_t seed = 7;
};

enum class FlagMatch { kNotMine, kTaken, kBadValue };

// Takes `arg` when it is one of the shared flags; kNotMine leaves it to the
// tool, kBadValue means a usage error.
inline FlagMatch ParseWorkloadFlag(const char* arg, WorkloadFlags* flags) {
  const char* value = nullptr;
  bool ok = true;
  if (MatchFlag(arg, "--mechanism", &value)) {
    flags->mechanism = value;
  } else if (MatchFlag(arg, "--mode", &value)) {
    flags->mode = value;
  } else if (MatchFlag(arg, "--ops", &value)) {
    ok = ParseUint(value, &flags->ops);
  } else if (MatchFlag(arg, "--threads", &value)) {
    ok = ParseCount(value, &flags->threads);
  } else if (MatchFlag(arg, "--initial-keys", &value)) {
    ok = ParseUint(value, &flags->initial_keys);
  } else if (MatchFlag(arg, "--seed", &value)) {
    ok = ParseUint(value, &flags->seed);
  } else {
    return FlagMatch::kNotMine;
  }
  return ok ? FlagMatch::kTaken : FlagMatch::kBadValue;
}

// "a | b | c": every name of an enum's table, in table order.
template <typename E>
std::string JoinNames(const NameTable<E>& table) {
  std::string out;
  for (const E value : table.All()) {
    out += (out.empty() ? "" : " | ") + std::string(table.Name(value));
  }
  return out;
}

// Prints a workload tool's usage -- its own flags, then the shared ones and
// the names --mechanism and --mode take -- and returns the usage exit code.
inline int WorkloadUsage(const char* argv0, const char* tool_flags) {
  std::fprintf(stderr,
               "usage: %s %s\n"
               "          [--mechanism=NAME] [--mode=NAME] [--ops=N]\n"
               "          [--threads=N] [--initial-keys=N] [--seed=N]\n"
               "  --mechanism: %s\n"
               "  --mode:      %s\n",
               argv0, tool_flags, JoinNames(MechanismNames()).c_str(),
               JoinNames(ExecModeNames()).c_str());
  return 2;
}

// What the flags name for `workload`: the runtime options every workload
// tool starts from (the flags' mode and threads on 512 MiB of PM, without
// crash bookkeeping) and the driver's run. An unknown mechanism or mode is
// InvalidArgument naming the flag and the names it takes.
struct ResolvedWorkload {
  RuntimeOptions options;
  WorkloadRun run;
};

inline StatusOr<ResolvedWorkload> ResolveWorkloadFlags(
    const WorkloadFlags& flags, const std::string& workload) {
  const StatusOr<Mechanism> mechanism = MechanismFromName(flags.mechanism);
  if (!mechanism.ok()) {
    return InvalidArgument("--mechanism: " + mechanism.status().message() +
                           "; one of " + JoinNames(MechanismNames()));
  }
  const StatusOr<ExecMode> mode = ExecModeFromName(flags.mode);
  if (!mode.ok()) {
    return InvalidArgument("--mode: " + mode.status().message() +
                           "; one of " + JoinNames(ExecModeNames()));
  }
  ResolvedWorkload r;
  r.options.mode = *mode;
  r.options.max_threads = flags.threads;
  r.options.pm_size = 512ull << 20;
  r.options.retain_crash_state = false;
  r.run.workload = workload;
  r.run.config.mechanism = *mechanism;
  r.run.config.threads = flags.threads;
  r.run.config.initial_keys = flags.initial_keys;
  r.run.config.seed = flags.seed;
  r.run.ops = flags.ops;
  return r;
}

// The exit code of a failed DriveWorkload, with the failed stage on stderr:
// 2 for an unknown workload name (a usage error), 1 for a failed setup or op.
inline int DriveFailure(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return status.code() == StatusCode::kNotFound ? 2 : 1;
}

}  // namespace nearpm

#endif  // TOOLS_FLAGS_H_
