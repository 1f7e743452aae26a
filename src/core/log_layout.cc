#include "src/core/log_layout.h"

#include <cstring>

namespace nearpm {

std::uint64_t Checksum64(std::span<const std::uint8_t> data) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + kWord <= data.size(); i += kWord) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, kWord);
    h ^= word;
    h *= kPrime;
    h ^= h >> 32;  // the fold (see log_layout.h)
  }
  for (; i < data.size(); ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  // Never return 0 so "checksum present" is distinguishable from a zeroed
  // slot even for empty payloads.
  return h == 0 ? 1 : h;
}

}  // namespace nearpm
