#include "src/common/files.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace nearpm {

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Unavailable("cannot open " + path + " for writing");
  }
  out << text;
  out.close();
  if (!out) {
    return Unavailable("failed writing " + path);
  }
  return Status::Ok();
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace nearpm
