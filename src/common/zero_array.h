// Fixed-size array whose elements start as all-zero bytes, backed by
// anonymous zero pages: construction maps address space and touches
// nothing, and the kernel supplies each page on its first access. Large
// per-set tables that a run touches only in part (remap permutations,
// counters, tag arrays) cost no set-up time and no resident memory for
// the sets never visited.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace bb {
namespace detail {

/// Maps `bytes` of zero-filled private anonymous memory (nullptr for 0);
/// throws std::bad_alloc on failure.
void* map_zero_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// `T`'s all-zero byte pattern is its initial value, so T must be
/// trivially copyable and destructible and must read all-zero as its
/// default (a struct of zero-initialized scalars does). Move-only.
template <class T>
class ZeroArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroArray elements live in raw zero pages");

 public:
  ZeroArray() = default;
  explicit ZeroArray(std::size_t n)
      : data_(static_cast<T*>(detail::map_zero_pages(n * sizeof(T)))),
        size_(n) {}
  ~ZeroArray() { detail::unmap_pages(data_, size_ * sizeof(T)); }

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

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace bb
