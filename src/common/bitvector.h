// Compact dynamic bit vector used for the BLE valid/dirty vectors and for
// cache-line presence tracking, and a fixed-shape matrix of bit rows for
// per-way block bitmaps. Sized at construction; bounds-checked in debug
// builds.
#pragma once

#include <cassert>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"

namespace bb {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits) { resize(nbits); }

  void resize(std::size_t nbits) {
    nbits_ = nbits;
    words_.assign((nbits + 63) / 64, 0);
  }

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
    for (auto& w : words_) w = 0;
  }

  void set_all() {
    for (auto& w : words_) w = ~u64{0};
    trim();
  }

  /// Number of set bits.
  std::size_t popcount() const {
    std::size_t n = 0;
    for (u64 w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool any() const {
    for (u64 w : words_)
      if (w) return true;
    return false;
  }

  bool none() const { return !any(); }

  bool all() const { return popcount() == nbits_; }

  bool operator==(const BitVector& other) const {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }

  void save(snap::Writer& w) const {
    w.put_u64(nbits_);
    for (u64 word : words_) w.put_u64(word);
  }

  void load(snap::Reader& r) {
    resize(static_cast<std::size_t>(r.get_u64()));
    for (u64& word : words_) word = r.get_u64();
  }

 private:
  void trim() {
    const std::size_t rem = nbits_ & 63;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (u64{1} << rem) - 1;
    }
  }

  std::size_t nbits_ = 0;
  std::vector<u64> words_;
};

/// `rows` bit vectors of `bits_per_row` bits each, packed into a single
/// allocation: per-way block bitmaps without one heap object per way.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t bits_per_row)
      : rows_(rows),
        bits_per_row_(bits_per_row),
        words_per_row_((bits_per_row + 63) / 64),
        words_(rows * words_per_row_, 0) {}

  bool test(std::size_t row, std::size_t i) const {
    return (words_[word(row, i)] >> (i & 63)) & 1;
  }

  void set(std::size_t row, std::size_t i) {
    words_[word(row, i)] |= u64{1} << (i & 63);
  }

  void clear_row(std::size_t row) {
    assert(row < rows_);
    for (std::size_t k = 0; k < words_per_row_; ++k) {
      words_[row * words_per_row_ + k] = 0;
    }
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
  std::size_t word(std::size_t row, std::size_t i) const {
    assert(row < rows_ && i < bits_per_row_);
    return row * words_per_row_ + (i >> 6);
  }

  std::size_t rows_ = 0;
  std::size_t bits_per_row_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<u64> words_;
};

}  // namespace bb
