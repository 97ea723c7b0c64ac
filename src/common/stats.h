// Lightweight statistics primitives: the fixed-bucket histogram behind every
// reported latency distribution, and the geomean the figures report.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb {

/// Histogram over fixed, caller-supplied bucket upper bounds.
///
/// A sample `v` lands in the first bucket whose upper bound is > v; samples
/// beyond the last bound land in an overflow bucket.
///
/// The bucket is found through a guide table: [0, last bound) is cut into
/// equal cells, each remembering the bucket of its left edge, so a sample
/// in range costs O(1) expected steps. Negative, NaN and infinite samples
/// and samples at or past the last bound take std::upper_bound instead;
/// both paths give upper_bound's bucket.
class Histogram {
 public:
  /// Empty histogram (single overflow bucket); useful as a default member
  /// that is later replaced by one with real bounds.
  Histogram() : Histogram(std::vector<double>{}) {}
  /// Throws std::invalid_argument unless the bounds are finite, > 0 and
  /// strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void sample(double v, u64 weight = 1) { add(bucket_of(v), weight); }

  /// Counts a sample already placed in bucket `i` by bucket_of, of this
  /// histogram or of one with the same bounds (one lookup, two counts).
  void add(std::size_t i, u64 weight = 1) {
    counts_[i] += weight;
    total_ += weight;
  }

  /// Index of the bucket `v` lands in (bucket_count() - 1 is overflow).
  std::size_t bucket_of(double v) const {
    if (!(v >= 0.0 && v < limit_)) {
      return static_cast<std::size_t>(
          std::upper_bound(bounds_.begin(), bounds_.end(), v) -
          bounds_.begin());
    }
    const std::size_t m = guide_.size() - 1;
    std::size_t i = guide_[std::min(static_cast<std::size_t>(v * scale_), m)];
    // v * scale_ may round across a cell edge; step to upper_bound's answer.
    while (i > 0 && bounds_[i - 1] > v) --i;
    while (bounds_[i] <= v) ++i;
    return i;
  }

  std::size_t bucket_count() const { return counts_.size(); }
  u64 bucket(std::size_t i) const { return counts_.at(i); }
  double upper_bound(std::size_t i) const { return bounds_.at(i); }
  u64 total() const { return total_; }

  /// Fraction of samples in bucket i (0 if empty histogram).
  double fraction(std::size_t i) const;

  /// Estimates the q-quantile (q in [0, 1]) by linear interpolation within
  /// the bucket containing the target rank. Bucket i spans
  /// [bounds[i-1], bounds[i]) with bucket 0 starting at 0; samples in the
  /// overflow bucket are clamped to the last bound (a histogram cannot know
  /// how far past it they landed). Returns 0 for an empty histogram.
  double quantile(double q) const;

  void reset();

  /// Snapshot/restore of the counts (bounds are construction-time shape and
  /// must match; a restore fails closed on a bucket-count mismatch).
  void serialize(snap::Archive& ar);

 private:
  /// Upper limit on guide-table cells (4 bytes each).
  static constexpr std::size_t kMaxGuideCells = 4096;

  std::vector<double> bounds_;
  std::vector<u64> counts_;  // bounds_.size() + 1 (overflow)
  u64 total_ = 0;
  /// guide_[j] = upper_bound(bounds_, j / scale_), capped at the last
  /// bound's bucket, for the cells of [0, limit_); one extra entry past
  /// the last cell absorbs a v * scale_ that rounds up to it.
  std::vector<u32> guide_;
  double limit_ = 0.0;  ///< last bound; 0 (no guided range) when empty
  double scale_ = 0.0;  ///< guide cells per unit of v
};

/// Geometric mean of a list of positive values (0 if empty or any <= 0).
double geomean(const std::vector<double>& values);

}  // namespace bb
