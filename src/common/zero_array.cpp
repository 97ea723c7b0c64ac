#include "common/zero_array.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>

namespace bb::detail {
namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Length actually mapped for a request of `bytes`.
std::size_t mapped_length(std::size_t bytes) {
  return bytes < kHugePage ? bytes
                           : (bytes + kHugePage - 1) & ~(kHugePage - 1);
}

void* map_anonymous(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

}  // namespace

void* map_zero_pages(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t len = mapped_length(bytes);
  if (len < kHugePage) return map_anonymous(len);
  // Tables of 2 MiB and more are mapped 2 MiB-aligned and offered to
  // transparent huge pages: a run that touches a table all over then
  // takes one fault per 2 MiB instead of one per 4 KiB. Where the kernel
  // gives no huge pages the hint is ignored and pages stay 4 KiB.
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

void unmap_pages(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) munmap(p, mapped_length(bytes));
}

}  // namespace bb::detail
