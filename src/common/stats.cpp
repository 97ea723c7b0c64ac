#include "common/stats.h"

#include <cmath>
#include <stdexcept>

#include "common/snapshot.h"

namespace bb {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  double prev = 0.0;
  for (double b : bounds_) {
    if (!std::isfinite(b) || !(b > prev)) {
      throw std::invalid_argument(
          "histogram bounds must be finite, > 0 and strictly increasing");
    }
    prev = b;
  }
  if (bounds_.empty()) return;

  // Cells no wider than the narrowest bucket hold at most two bucket
  // edges each; cap the table for bounds with a tiny gap.
  double min_gap = bounds_[0];
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    min_gap = std::min(min_gap, bounds_[i] - bounds_[i - 1]);
  }
  const double cells = std::ceil(bounds_.back() / min_gap);
  const std::size_t m =
      cells >= static_cast<double>(kMaxGuideCells)
          ? kMaxGuideCells
          : std::max<std::size_t>(1, static_cast<std::size_t>(cells));
  scale_ = static_cast<double>(m) / bounds_.back();
  // Subnormal bounds overflow the scale: every sample then takes
  // upper_bound.
  if (!std::isfinite(scale_)) return;
  limit_ = bounds_.back();
  guide_.resize(m + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double edge = static_cast<double>(j) / scale_;
    while (i + 1 < bounds_.size() && bounds_[i] <= edge) ++i;
    guide_[j] = static_cast<u32>(i);
  }
  guide_[m] = static_cast<u32>(bounds_.size() - 1);
}

double Histogram::fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double n = static_cast<double>(counts_[i]);
    if (cum + n < target || n == 0.0) {
      cum += n;
      continue;
    }
    if (i >= bounds_.size()) {
      // Overflow bucket has no upper edge; clamp to the last finite bound.
      return bounds_.empty() ? 0.0 : bounds_.back();
    }
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    return lower + (bounds_[i] - lower) * (target - cum) / n;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::serialize(snap::Archive& ar) {
  ar.u64(total_);
  ar.expect(counts_.size(), "histogram bucket count");
  for (u64& c : counts_) ar.u64(c);
}

void Histogram::reset() {
  for (auto& c : counts_) c = 0;
  total_ = 0;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace bb
