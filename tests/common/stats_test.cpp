#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "hmm/controller.h"

namespace bb {
namespace {

TEST(Histogram, BucketBoundaries) {
  Histogram h({5, 10, 15, 20});
  h.sample(0);     // -> bucket 0
  h.sample(4.99);  // -> bucket 0
  h.sample(5);     // -> bucket 1 (upper bound exclusive below)
  h.sample(9.99);  // -> bucket 1
  h.sample(19.99); // -> bucket 3
  h.sample(20);    // -> overflow
  h.sample(1000);  // -> overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, Fractions) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);  // empty histogram
  h.sample(0.5, 3);
  h.sample(2.0, 1);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(Histogram, Reset) {
  Histogram h({1.0});
  h.sample(0.5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h({10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  Histogram none;
  none.sample(5.0);
  EXPECT_DOUBLE_EQ(none.quantile(0.5), 0.0);  // no finite bounds
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  // All mass in bucket [0, 10): linear interpolation across the bucket.
  Histogram h({10.0});
  h.sample(5.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileExactBucketBoundary) {
  // 10 samples per bucket over [0,10), [10,20), [20,30).
  Histogram h({10.0, 20.0, 30.0});
  h.sample(5.0, 10);
  h.sample(15.0, 10);
  h.sample(25.0, 10);
  // target lands (up to rounding) on a bucket edge.
  EXPECT_NEAR(h.quantile(1.0 / 3.0), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 27.0);
}

TEST(Histogram, QuantileWeightedSamples) {
  Histogram h({10.0, 20.0});
  h.sample(5.0, 1);
  h.sample(15.0, 99);
  // p50 target = 50 of 100; 49 into the second bucket's 99 samples.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0 + 10.0 * 49.0 / 99.0);
}

TEST(Histogram, QuantileOverflowClampsToLastBound) {
  Histogram h({10.0});
  h.sample(100.0, 4);  // all mass in the overflow bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 10.0);
}

TEST(Histogram, QuantileClampsQ) {
  Histogram h({10.0});
  h.sample(5.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 10.0);
}

/// upper_bound's bucket for `v`, the reference the guide table must match.
std::size_t reference_bucket(const std::vector<double>& bounds, double v) {
  return static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

TEST(Histogram, GuideTableMatchesUpperBound) {
  const std::vector<std::vector<double>> bound_sets = {
      hmm::HmmStats::latency_bounds_ns(),
      {0.5, 0.75, 3.0, 3.1, 100.0, 1e4, 1e4 + 1e-3, 2e6},
      {1e-3, 1e9},  // a gap too small for one cell per bucket
      {std::numeric_limits<double>::denorm_min(), 1e-320},
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& bounds : bound_sets) {
    SCOPED_TRACE(::testing::Message() << bounds.size() << " bounds, last "
                                      << bounds.back());
    const Histogram h(bounds);
    std::vector<double> values = {0.0,  -0.0, -1.0, -1e-300, -inf,
                                  inf,  nan,  2 * bounds.back(),
                                  std::numeric_limits<double>::denorm_min()};
    for (double b : bounds) {
      values.push_back(std::nextafter(b, -inf));
      values.push_back(b);
      values.push_back(std::nextafter(b, inf));
    }
    Rng rng(15);
    for (int i = 0; i < 100000; ++i) {
      values.push_back(rng.next_double() * 1.1 * bounds.back());
    }
    for (double v : values) {
      ASSERT_EQ(h.bucket_of(v), reference_bucket(bounds, v)) << v;
    }
  }
}

TEST(Histogram, RejectsNonFiniteBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Histogram({1.0, inf}), std::invalid_argument);
  EXPECT_THROW(Histogram({nan}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, nan, 3.0}), std::invalid_argument);
}

TEST(Histogram, RejectsBoundsNotStrictlyIncreasing) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({5.0, 10.0, 7.0}), std::invalid_argument);
}

TEST(Histogram, RejectsNonPositiveBounds) {
  EXPECT_THROW(Histogram({0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({-0.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({-5.0, 1.0}), std::invalid_argument);
}

TEST(Geomean, Basics) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, NonPositiveGivesZero) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, -2.0}), 0.0);
}

}  // namespace
}  // namespace bb
