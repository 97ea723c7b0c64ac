// Fixed-size array whose elements start as all-zero bytes: the one
// allocator for per-cell design tables (remap permutations, counters, tag
// and way arrays, block bitmaps). One size rule picks the backing:
//   * 2 MiB and more: anonymous zero pages, 2 MiB-aligned and offered to
//     transparent huge pages. Construction maps address space and touches
//     nothing; the kernel supplies each page on its first access, so the
//     sets a run never visits cost no set-up time and no resident memory.
//   * Less than 2 MiB: calloc from the heap. A matrix of cells frees and
//     re-creates tables of the same sizes, so these mostly come back from
//     warm, already-resident heap memory; fresh 4 KiB zero pages would cost
//     a read fault and then a copy-on-write fault per page at run time.
#pragma once

#include <cassert>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace bb {
namespace detail {

/// `bytes` of zero-filled memory under the size rule above (nullptr for
/// 0); throws std::bad_alloc on failure.
void* alloc_zeroed(std::size_t bytes);
/// Releases what alloc_zeroed(bytes) returned.
void free_zeroed(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// `T`'s all-zero byte pattern is its initial value, so T must be
/// trivially copyable and destructible and must read all-zero as its
/// default (a struct of zero-initialized scalars does). Move-only.
template <class T>
class ZeroArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroArray elements live in raw zero-filled memory");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "calloc aligns to max_align_t only");

 public:
  ZeroArray() = default;
  /// Throws std::length_error, allocating nothing, when `n` elements do
  /// not fit in size_t bytes.
  explicit ZeroArray(std::size_t n)
      : data_(static_cast<T*>(detail::alloc_zeroed(byte_size(n)))),
        size_(n) {}
  ~ZeroArray() { detail::free_zeroed(data_, size_ * sizeof(T)); }

  ZeroArray(ZeroArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroArray& operator=(ZeroArray&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }
  ZeroArray(const ZeroArray&) = delete;
  ZeroArray& operator=(const ZeroArray&) = delete;

  std::size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  static std::size_t byte_size(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::length_error("ZeroArray: element count overflows size_t");
    }
    return n * sizeof(T);
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace bb
