#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

namespace bb {
namespace {

TEST(SplitMix, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const u64 a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(1);
  for (u64 bound : {u64{1}, u64{2}, u64{17}, u64{1000000}}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GapMeanMatches) {
  Rng rng(3);
  for (double mean : {2.0, 10.0, 62.1, 1000.0}) {
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.next_gap(mean));
    EXPECT_NEAR(sum / n / mean, 1.0, 0.05) << "mean " << mean;
  }
}

TEST(Rng, GapAlwaysPositive) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GE(rng.next_gap(0.5), 1u);
    ASSERT_GE(rng.next_gap(1.0), 1u);
  }
}

TEST(Zipf, SampleInRange) {
  Rng rng(6);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(zipf.sample(rng), 100u);
  }
}

TEST(Zipf, SkewConcentratesMass) {
  Rng rng(8);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(zipf.sample(rng))];
  // Rank 0 must dominate rank 10 which must dominate rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // The head holds a large share under s = 1.2.
  int head = 0;
  for (int i = 0; i < 10; ++i) head += counts[i];
  EXPECT_GT(static_cast<double>(head) / n, 0.25);
}

TEST(Zipf, UniformWhenSZero) {
  Rng rng(10);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(zipf.sample(rng))];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Zipf, SingleElement) {
  Rng rng(11);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, ZeroElementsClamped) {
  ZipfSampler zipf(0, 1.0);
  EXPECT_EQ(zipf.n(), 1u);
}

/// The index std::lower_bound finds in the sampler's own CDF.
u64 reference_index(const ZipfSampler& zipf, double u) {
  const std::vector<double>& cdf = zipf.table().cdf;
  return static_cast<u64>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin());
}

TEST(Zipf, GuideTableMatchesLowerBound) {
  const std::pair<u64, double> cases[] = {
      {1, 1.0}, {10, 0.0}, {1000, 1.2}, {u64{1} << 20, 0.7}};
  for (const auto& [n, s] : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
    const ZipfSampler zipf(n, s);
    ASSERT_EQ(zipf.table().cdf.size(), n);
    Rng rng(13);
    for (int i = 0; i < 1000000; ++i) {
      const double u = rng.next_double();
      ASSERT_EQ(zipf.index_of(u), reference_index(zipf, u)) << u;
    }
    // Every edge: each CDF value and each guide cell's left edge, with
    // its neighbours one ulp either side, inside [0, 1).
    std::vector<double> edges = zipf.table().cdf;
    const std::size_t m = zipf.table().guide.size() - 1;
    for (std::size_t j = 0; j < m; ++j) {
      edges.push_back(static_cast<double>(j) / static_cast<double>(m));
    }
    for (double e : edges) {
      for (double u : {std::nextafter(e, 0.0), e, std::nextafter(e, 2.0)}) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(zipf.index_of(u), reference_index(zipf, u)) << u;
      }
    }
  }
}

TEST(ZipfSharedTable, EqualParametersShareOneTable) {
  const ZipfSampler a(1000, 1.2);
  const ZipfSampler b(1000, 1.2);
  const ZipfSampler c(1000, 1.1);
  const ZipfSampler d(999, 1.2);
  EXPECT_EQ(&a.table(), &b.table());
  EXPECT_NE(&a.table(), &c.table());
  EXPECT_NE(&a.table(), &d.table());
}

TEST(ZipfSharedTable, ConcurrentConstructionSharesOneTable) {
  // A (n, s) no other test uses, so the threads race to build it.
  constexpr u64 kN = 77777;
  constexpr double kS = 0.913;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<const ZipfTable*> seen(kThreads, nullptr);
  std::vector<u64> first_draws(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const ZipfSampler zipf(kN, kS);
      seen[static_cast<std::size_t>(t)] = &zipf.table();
      Rng rng(14);
      u64 sum = 0;
      for (int i = 0; i < 1000; ++i) sum += zipf.sample(rng);
      first_draws[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (auto& th : threads) th.join();
  const ZipfSampler later(kN, kS);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], &later.table());
    EXPECT_EQ(first_draws[static_cast<std::size_t>(t)], first_draws[0]);
  }
}

class RngSeedTest : public ::testing::TestWithParam<u64> {};

TEST_P(RngSeedTest, ReseedReproduces) {
  Rng a(GetParam());
  std::vector<u64> first;
  for (int i = 0; i < 64; ++i) first.push_back(a.next_u64());
  a.reseed(GetParam());
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0, 1, 42, 0xdeadbeef,
                                           ~u64{0}));

}  // namespace
}  // namespace bb
