// Deterministic random number generation for workload synthesis.
//
// All randomness in the repository flows through these generators so every
// experiment is bit-reproducible from its seed. We use SplitMix64 for
// seeding and xoshiro256** as the workhorse generator (public-domain
// algorithms by Blackman & Vigna).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "common/types.h"

namespace bb {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG.
class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed5eed5eedULL) { reseed(seed); }

  void reseed(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0.
  u64 next_below(u64 bound) {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free mapping is fine for our
    // non-cryptographic needs; bias is < 2^-64 * bound.
    return static_cast<u64>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) { return next_double() < p; }

  /// Generator state, for snapshot/restore of in-flight runs. Restoring a
  /// saved state resumes the stream bit-exactly where it left off.
  std::array<u64, 4> state() const { return state_; }
  void set_state(const std::array<u64, 4>& s) { state_ = s; }

  /// Geometric-ish positive gap with the given mean (>= 1).
  u64 next_gap(double mean) {
    if (mean <= 1.0) return 1;
    return next_gap_log(std::log1p(-1.0 / mean));
  }

  /// next_gap(mean) for mean > 1 with `log1p_neg_p` = log1p(-1 / mean)
  /// computed once by the caller; draws the identical gap.
  u64 next_gap_log(double log1p_neg_p) {
    // Inverse-CDF sampling of a geometric distribution with the requested
    // mean; deterministic and cheap.
    const double u = next_double();
    const double g = std::log1p(-u) / log1p_neg_p;
    u64 gap = static_cast<u64>(g) + 1;
    return gap == 0 ? 1 : gap;
  }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

/// Immutable inverse-CDF table of one Zipf distribution, with a guide
/// table (also called cutpoint or indexed search) over it.
struct ZipfTable {
  std::vector<double> cdf;  ///< cdf[i] = P(X <= i); cdf.back() == 1
  /// guide[j] = lower_bound(cdf, j / m) for the m = guide.size() - 1 equal
  /// cells of [0, 1); guide[m] = cdf.size() - 1.
  std::vector<u32> guide;
};

/// Samples from a Zipf distribution over {0, 1, ..., n-1} with exponent s.
///
/// Inverse-CDF sampling: a uniform u maps to lower_bound(cdf, u), which is
/// exact and deterministic. The guide table starts the search next to the
/// answer, so a sample costs O(1) expected steps and returns exactly the
/// index std::lower_bound would. Tables are immutable and built once per
/// (n, s) per process: every sampler with the same (n, s) shares one
/// (thread-safe), so constructing a sampler is cheap after the first.
class ZipfSampler {
 public:
  ZipfSampler(u64 n, double s);

  u64 sample(Rng& rng) const { return index_of(rng.next_double()); }

  /// The sample for uniform draw u in [0, 1): the smallest i with
  /// cdf[i] >= u.
  u64 index_of(double u) const {
    const std::vector<double>& cdf = table_->cdf;
    const std::vector<u32>& guide = table_->guide;
    const std::size_t m = guide.size() - 1;
    std::size_t i = guide[std::min(static_cast<std::size_t>(u * scale_), m)];
    // u * m may round across a cell edge; step to lower_bound's answer.
    while (i > 0 && cdf[i - 1] >= u) --i;
    while (cdf[i] < u) ++i;
    return i;
  }

  u64 n() const { return n_; }
  double s() const { return s_; }
  const ZipfTable& table() const { return *table_; }

 private:
  u64 n_;
  double s_;
  std::shared_ptr<const ZipfTable> table_;
  double scale_;  ///< guide cells per unit of u
};

}  // namespace bb
