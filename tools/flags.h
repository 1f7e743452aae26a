// Command-line flag helpers shared by the tools: one strict unsigned parser
// and the two flag shapes the tools accept.
#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>

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

}  // namespace nearpm

#endif  // TOOLS_FLAGS_H_
