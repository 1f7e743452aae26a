#include "src/common/pages.h"

#include <sys/mman.h>

#include <new>

namespace nearpm {

void UnmapPages::operator()(void* p) const { munmap(p, bytes); }

void* MapZeroed(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace nearpm
