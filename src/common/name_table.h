// An enum's names, listed once next to the enum: the one table that both
// prints and parses them (and reads and writes them through NamedField,
// json.h).
#ifndef SRC_COMMON_NAME_TABLE_H_
#define SRC_COMMON_NAME_TABLE_H_

#include <initializer_list>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace nearpm {

// The table lists every value once, in the order All() returns them to the
// code that enumerates the values.
template <typename E>
class NameTable {
 public:
  NameTable(std::initializer_list<std::pair<E, const char*>> entries)
      : entries_(entries) {}

  const char* Name(E value) const {
    for (const auto& [e, name] : entries_) {
      if (e == value) {
        return name;
      }
    }
    return "unknown";
  }
  std::optional<E> Parse(std::string_view name) const {
    for (const auto& [e, n] : entries_) {
      if (name == n) {
        return e;
      }
    }
    return std::nullopt;
  }
  std::vector<E> All() const {
    std::vector<E> out;
    for (const auto& entry : entries_) {
      out.push_back(entry.first);
    }
    return out;
  }

 private:
  std::vector<std::pair<E, const char*>> entries_;
};

}  // namespace nearpm

#endif  // SRC_COMMON_NAME_TABLE_H_
