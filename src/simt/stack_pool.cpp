#include "simt/stack_pool.hpp"

#include <sanitizer/asan_interface.h>

#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define ATS_SIMT_HAS_MMAP_STACKS 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define ATS_SIMT_HAS_MMAP_STACKS 0
#endif

namespace ats::simt::detail {

namespace {
std::size_t page_size() {
#if ATS_SIMT_HAS_MMAP_STACKS
  const long p = ::sysconf(_SC_PAGESIZE);
  return p > 0 ? static_cast<std::size_t>(p) : 4096;
#else
  return 4096;
#endif
}
}  // namespace

StackPool::StackPool(std::size_t slab_bytes) : page_bytes_(page_size()) {
  // Round the slab up to whole pages so every slab base is page-aligned.
  slab_bytes_ = ((slab_bytes + page_bytes_ - 1) / page_bytes_) * page_bytes_;
  if (slab_bytes_ == 0) slab_bytes_ = page_bytes_;
}

StackPool::~StackPool() {
#if ATS_SIMT_HAS_MMAP_STACKS
  for (const Chunk& c : chunks_) {
    if (c.base != nullptr) ::munmap(c.base, c.bytes);
  }
#else
  for (const Chunk& c : chunks_) std::free(c.base);
#endif
}

char* StackPool::acquire() {
  char* slab = nullptr;
  if (!free_.empty()) {
    slab = free_.back();
    free_.pop_back();
  } else {
    if (chunks_.empty() || chunks_.back().used == kSlabsPerChunk) {
      Chunk c;
#if ATS_SIMT_HAS_MMAP_STACKS
      c.bytes = page_bytes_ + kSlabsPerChunk * slab_bytes_;
      void* addr =
          ::mmap(nullptr, c.bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (addr == MAP_FAILED) throw std::bad_alloc();
      c.base = static_cast<char*>(addr);
      // Guard page below the chunk's first slab (see the header comment).
      ::mprotect(c.base, page_bytes_, PROT_NONE);
#else
      c.bytes = kSlabsPerChunk * slab_bytes_;
      c.base = static_cast<char*>(std::malloc(c.bytes));
      if (c.base == nullptr) throw std::bad_alloc();
#endif
      chunks_.push_back(c);
    }
    Chunk& c = chunks_.back();
#if ATS_SIMT_HAS_MMAP_STACKS
    slab = c.base + page_bytes_ + c.used * slab_bytes_;
#else
    slab = c.base + c.used * slab_bytes_;
#endif
    ++c.used;
  }
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return slab;
}

void StackPool::release(char* base) {
  if (base == nullptr) return;
  // The slab keeps its committed pages: the next acquire reuses them warm
  // instead of faulting fresh zero pages in (see the header comment).
  ASAN_UNPOISON_MEMORY_REGION(base, slab_bytes_);  // no-op without ASan
  free_.push_back(base);
  --live_;
}

std::size_t StackPool::reserved_bytes() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.bytes;
  return n;
}

}  // namespace ats::simt::detail
