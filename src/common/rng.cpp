#include "common/rng.h"

#include <bit>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace bb {
namespace {

std::shared_ptr<const ZipfTable> build_zipf_table(u64 n, double s) {
  if (n > 0xffffffffULL) {
    throw std::length_error("Zipf support exceeds the u32 guide table");
  }
  auto t = std::make_shared<ZipfTable>();
  std::vector<double>& cdf = t->cdf;
  cdf.resize(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (u64 i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<std::size_t>(i)] = sum;
  }
  for (auto& c : cdf) c /= sum;
  cdf.back() = 1.0;  // guard against rounding

  // One guide cell per CDF entry: a cell then spans one entry on average.
  const std::size_t m = cdf.size();
  t->guide.resize(m + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(m);
    while (cdf[i] < edge) ++i;
    t->guide[j] = static_cast<u32>(i);
  }
  t->guide[m] = static_cast<u32>(m - 1);
  return t;
}

/// Process-wide table cache keyed by (n, bit pattern of s). Tables are
/// never evicted: a run uses a handful of (n, s) pairs, the largest a few
/// MiB, and the same pairs recur in every cell of a matrix.
std::shared_ptr<const ZipfTable> shared_zipf_table(u64 n, double s) {
  static std::mutex mu;
  static std::map<std::pair<u64, u64>, std::shared_ptr<const ZipfTable>>
      tables;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[{n, std::bit_cast<u64>(s)}];
  if (!slot) slot = build_zipf_table(n, s);
  return slot;
}

}  // namespace

ZipfSampler::ZipfSampler(u64 n, double s)
    : n_(n == 0 ? 1 : n),
      s_(s),
      table_(shared_zipf_table(n_, s_)),
      scale_(static_cast<double>(table_->guide.size() - 1)) {}

}  // namespace bb
