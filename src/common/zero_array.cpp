#include "common/zero_array.h"

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <new>

namespace bb::detail {
namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Length mapped for a table of `bytes` (at least kHugePage).
std::size_t mapped_length(std::size_t bytes) {
  return (bytes + kHugePage - 1) & ~(kHugePage - 1);
}

void* map_anonymous(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

/// Maps `bytes` (>= kHugePage) of zero pages 2 MiB-aligned and offers them
/// to transparent huge pages: a run that touches a table all over then
/// takes one fault per 2 MiB instead of one per 4 KiB. Where the kernel
/// gives no huge pages the hint is ignored and pages stay 4 KiB.
void* map_huge_zero_pages(std::size_t bytes) {
  // The length rounded up plus the alignment slack must fit in size_t.
  if (bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePage) {
    throw std::bad_alloc();
  }
  const std::size_t len = mapped_length(bytes);
  char* raw = static_cast<char*>(map_anonymous(len + kHugePage));
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  char* p = raw + (((addr + kHugePage - 1) & ~(kHugePage - 1)) - addr);
  if (p != raw) munmap(raw, static_cast<std::size_t>(p - raw));
  char* const tail = p + len;
  if (tail != raw + len + kHugePage) {
    munmap(tail, static_cast<std::size_t>(raw + len + kHugePage - tail));
  }
  madvise(p, len, MADV_HUGEPAGE);
  return p;
}

}  // namespace

void* alloc_zeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes >= kHugePage) return map_huge_zero_pages(bytes);
  void* p = std::calloc(1, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void free_zeroed(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes >= kHugePage) {
    munmap(p, mapped_length(bytes));
  } else {
    std::free(p);
  }
}

}  // namespace bb::detail
