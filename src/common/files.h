// Whole-file text I/O and corpus directories, shared by the fuzz and litmus
// repro corpora and the JSON config loaders.
#ifndef SRC_COMMON_FILES_H_
#define SRC_COMMON_FILES_H_

#include <string>
#include <vector>

#include "src/common/status.h"

namespace nearpm {

// The whole file. NotFound("cannot open <path>") when it cannot be read.
StatusOr<std::string> ReadTextFile(const std::string& path);

// Replaces `path` with `text`, creating its directory first.
Status WriteTextFile(const std::string& path, const std::string& text);

// Sorted paths of every regular *.json file directly under `dir` (empty when
// the directory does not exist).
std::vector<std::string> ListCorpus(const std::string& dir);

}  // namespace nearpm

#endif  // SRC_COMMON_FILES_H_
