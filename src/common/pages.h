// Zero-filled memory taken straight from the kernel, resident only where it
// is written.
//
// PM media and trace rings are large, allocated once and mostly written
// sparsely, so their resident size should follow what the model touches.
// malloc and calloc give that only by chance: glibc serves a block from a
// fresh mapping only while it is above the mmap threshold, and that
// threshold rises (up to 32 MB) each time a larger mapped block is freed.
// Below it, the block is carved from the heap, where calloc clears memory
// the heap has held before, page by page, and malloc may hand back pages
// that are still resident. Which of the two happens then depends on what
// the process freed earlier, so the same run could be 30 MB larger one
// time than the next. An anonymous private mapping has no such history.
#ifndef SRC_COMMON_PAGES_H_
#define SRC_COMMON_PAGES_H_

#include <algorithm>
#include <cstddef>
#include <memory>

namespace nearpm {

// Unmaps what MapZeroed returned; carries the mapping's length.
struct UnmapPages {
  std::size_t bytes = 0;
  void operator()(void* p) const;
};

// `bytes` (at least 1) of zero-filled, lazily backed memory. Throws
// std::bad_alloc when the mapping fails.
void* MapZeroed(std::size_t bytes);

template <typename T>
using ZeroedPages = std::unique_ptr<T[], UnmapPages>;

// `count` zero-filled elements of a trivial type T.
template <typename T>
ZeroedPages<T> MapZeroedArray(std::size_t count) {
  const std::size_t bytes = std::max<std::size_t>(count * sizeof(T), 1);
  return ZeroedPages<T>(static_cast<T*>(MapZeroed(bytes)), UnmapPages{bytes});
}

}  // namespace nearpm

#endif  // SRC_COMMON_PAGES_H_
