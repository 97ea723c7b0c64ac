// Property-style sweeps over the LRU cache: structural invariants for
// every (access pattern, size, ways) triple.
#include <gtest/gtest.h>

#include <tuple>

#include "cache/cache.h"
#include "common/rng.h"

namespace bb::cache {
namespace {

// The order in which a test walks its footprint. One byte, so the sweep's
// case names read "1-byte object <NN>".
enum class Pattern : u8 { kRandom, kSequential, kStrided, kHotCold, kWriteOnly };

// Line index of the i-th access over a footprint of `lines` lines.
u64 next_line(Pattern pattern, u64 i, u64 lines, Rng& rng) {
  switch (pattern) {
    case Pattern::kSequential:
      return i % lines;
    case Pattern::kStrided:
      return (i * 17) % lines;
    case Pattern::kHotCold:
      return rng.next_bool(0.7) ? rng.next_below((lines + 3) / 4)
                                : rng.next_below(lines);
    case Pattern::kRandom:
    case Pattern::kWriteOnly:
      break;
  }
  return rng.next_below(lines);
}

AccessType next_type(Pattern pattern, Rng& rng) {
  if (pattern == Pattern::kWriteOnly) return AccessType::kWrite;
  return rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
}

using Geometry = std::tuple<Pattern, u64 /*size*/, u32 /*ways*/>;

class PolicyPropertyTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(PolicyPropertyTest, StatsAlwaysConsistent) {
  const auto [pattern, size, ways] = GetParam();
  CacheParams p;
  p.size_bytes = size;
  p.ways = ways;
  Cache c(p);
  Rng rng(99);
  u64 evictions_seen = 0;
  c.set_eviction_hook([&](const EvictionInfo&) { ++evictions_seen; });
  const u64 footprint_lines = 4 * size / p.line_bytes;
  for (u64 i = 0; i < 20000; ++i) {
    c.access(next_line(pattern, i, footprint_lines, rng) * p.line_bytes,
             next_type(pattern, rng));
  }
  const auto& s = c.stats();
  EXPECT_EQ(s.hits + s.misses, 20000u);
  EXPECT_EQ(s.evictions, evictions_seen);
  EXPECT_LE(s.writebacks, s.evictions);
  // Misses at least fill the cache once before any eviction can happen.
  EXPECT_GE(s.misses, s.evictions);
}

TEST_P(PolicyPropertyTest, WorkingSetWithinCapacityConverges) {
  const auto [pattern, size, ways] = GetParam();
  CacheParams p;
  p.size_bytes = size;
  p.ways = ways;
  Cache c(p);
  // A working set of half the cache: after the cold pass, every access
  // must hit whatever the order (LRU never thrashes a fitting set).
  const u64 lines = size / p.line_bytes / 2;
  for (u64 i = 0; i < lines; ++i) c.access(i * 64, AccessType::kRead);
  c.reset_stats();
  Rng rng(7);
  for (u64 i = 0; i < 4 * lines; ++i) {
    c.access(next_line(pattern, i, lines, rng) * 64, next_type(pattern, rng));
  }
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 1.0)
      << "pattern " << static_cast<int>(pattern) << " size " << size
      << " ways " << ways;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyPropertyTest,
    ::testing::Combine(::testing::Values(Pattern::kRandom, Pattern::kSequential,
                                         Pattern::kStrided, Pattern::kHotCold,
                                         Pattern::kWriteOnly),
                       ::testing::Values(u64{16 * KiB}, u64{256 * KiB}),
                       ::testing::Values(2u, 8u, 16u)));

}  // namespace
}  // namespace bb::cache
