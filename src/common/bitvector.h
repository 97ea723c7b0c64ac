// Fixed-shape matrix of bit rows for per-way and per-frame block bitmaps,
// and the bit operations on one row, as a view of that row's words. Sized
// at construction; bounds-checked in debug builds. A BitMatrix's words are
// a ZeroArray, the allocator of every per-cell design table.
#pragma once

#include <cassert>

#include "common/snapshot.h"
#include "common/types.h"
#include "common/zero_array.h"

namespace bb {

/// Bit operations over `nbits` bits in words someone else owns: one row
/// of a BitMatrix. A const BitRow is read-only. serialize() stores `nbits`
/// then the words; a restore fails closed on a stream of a different width.
class BitRow {
 public:
  BitRow(u64* words, std::size_t nbits) : words_(words), nbits_(nbits) {}

  std::size_t size() const { return nbits_; }

  bool test(std::size_t i) const {
    assert(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void set(std::size_t i, bool v = true) {
    assert(i < nbits_);
    if (v) {
      words_[i >> 6] |= (u64{1} << (i & 63));
    } else {
      words_[i >> 6] &= ~(u64{1} << (i & 63));
    }
  }

  void clear_all() {
    for (std::size_t k = 0; k < words(); ++k) words_[k] = 0;
  }

  void set_all() {
    for (std::size_t k = 0; k < words(); ++k) words_[k] = ~u64{0};
    const std::size_t rem = nbits_ & 63;
    if (rem != 0) words_[words() - 1] &= (u64{1} << rem) - 1;
  }

  /// Number of set bits.
  std::size_t popcount() const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < words(); ++k) {
      n += static_cast<std::size_t>(__builtin_popcountll(words_[k]));
    }
    return n;
  }

  bool any() const {
    for (std::size_t k = 0; k < words(); ++k) {
      if (words_[k]) return true;
    }
    return false;
  }

  bool all() const { return popcount() == nbits_; }

  void serialize(snap::Archive& ar) {
    ar.expect(nbits_, "bitmap width");
    for (std::size_t k = 0; k < words(); ++k) ar.u64(words_[k]);
  }

 private:
  std::size_t words() const { return (nbits_ + 63) / 64; }

  u64* words_;
  std::size_t nbits_;
};

/// `rows` bit rows of `bits_per_row` bits each, packed into a single
/// zero-filled allocation: per-way block bitmaps without one heap object
/// per way, all rows empty at construction. Move-only.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t bits_per_row)
      : rows_(rows),
        bits_per_row_(bits_per_row),
        words_per_row_((bits_per_row + 63) / 64),
        words_(rows * words_per_row_) {}

  BitRow row(std::size_t r) {
    assert(r < rows_);
    return {words_.data() + r * words_per_row_, bits_per_row_};
  }
  const BitRow row(std::size_t r) const {
    return const_cast<BitMatrix*>(this)->row(r);
  }

  bool test(std::size_t r, std::size_t i) const { return row(r).test(i); }
  void set(std::size_t r, std::size_t i, bool v = true) {
    row(r).set(i, v);
  }
  void clear_row(std::size_t r) { row(r).clear_all(); }

  /// The row width, then every row's words as one snap::Archive table
  /// (rows never written cost nothing). A restore fails closed on a
  /// stream of another width or row count.
  void serialize(snap::Archive& ar) {
    ar.expect(bits_per_row_, "bitmap width");
    ar.table(words_, "bitmap word count");
  }

  /// Copies row `src_row` of `src` (same row width) into row `row`.
  void copy_row(std::size_t row, const BitMatrix& src, std::size_t src_row) {
    assert(row < rows_ && src_row < src.rows_);
    assert(bits_per_row_ == src.bits_per_row_);
    for (std::size_t k = 0; k < words_per_row_; ++k) {
      words_[row * words_per_row_ + k] =
          src.words_[src_row * words_per_row_ + k];
    }
  }

 private:
  std::size_t rows_ = 0;
  std::size_t bits_per_row_ = 0;
  std::size_t words_per_row_ = 0;
  ZeroArray<u64> words_;
};

}  // namespace bb
