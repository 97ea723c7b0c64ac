#include "cache/cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "snapshot_testing.h"

namespace bb::cache {
namespace {

CacheParams small_cache() {
  CacheParams p;
  p.size_bytes = 4 * KiB;
  p.ways = 2;
  p.line_bytes = 64;
  return p;
}

/// One set of `ways` lines, so line i maps to way i on the cold fills.
Cache one_set(u32 ways) {
  CacheParams p;
  p.size_bytes = ways * 64;
  p.ways = ways;
  p.line_bytes = 64;
  return Cache(p);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  Cache c = one_set(4);
  for (Addr l = 0; l < 4; ++l) c.access(l * 64, AccessType::kRead);
  // Touch lines 0, 1, 3 -> the victim must be line 2.
  c.access(0 * 64, AccessType::kRead);
  c.access(1 * 64, AccessType::kRead);
  c.access(3 * 64, AccessType::kRead);
  EXPECT_EQ(c.access(4 * 64, AccessType::kRead).evicted_addr, 2u * 64);
}

TEST(Lru, FillCountsAsUse) {
  Cache c = one_set(2);
  c.access(0 * 64, AccessType::kRead);
  c.access(1 * 64, AccessType::kRead);
  EXPECT_EQ(c.access(2 * 64, AccessType::kRead).evicted_addr, 0u);
}

TEST(Lru, SetsAreIndependent) {
  CacheParams p;
  p.size_bytes = 4 * 64;  // 2 sets x 2 ways
  p.ways = 2;
  p.line_bytes = 64;
  Cache c(p);
  // Even lines map to set 0, odd lines to set 1; fill them in opposite
  // orders so each set has a different LRU line.
  c.access(0 * 64, AccessType::kRead);
  c.access(3 * 64, AccessType::kRead);
  c.access(2 * 64, AccessType::kRead);
  c.access(1 * 64, AccessType::kRead);
  EXPECT_EQ(c.access(4 * 64, AccessType::kRead).evicted_addr, 0u);
  EXPECT_EQ(c.access(5 * 64, AccessType::kRead).evicted_addr, 3u * 64);
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x100, AccessType::kRead).hit);
  EXPECT_TRUE(c.access(0x100, AccessType::kRead).hit);
  EXPECT_TRUE(c.access(0x13f, AccessType::kRead).hit);  // same line
  EXPECT_FALSE(c.access(0x140, AccessType::kRead).hit); // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, EvictionReportsVictim) {
  auto p = small_cache();
  p.size_bytes = 2 * 64;  // 1 set, 2 ways
  p.ways = 2;
  Cache c(p);
  c.access(0 * 64, AccessType::kRead);
  c.access(1 * 64, AccessType::kRead);
  const auto r = c.access(2 * 64, AccessType::kRead);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_addr, 0u);  // LRU victim was line 0
  EXPECT_FALSE(r.evicted_dirty);
}

TEST(Cache, DirtyEvictionWritesBack) {
  auto p = small_cache();
  p.size_bytes = 2 * 64;
  Cache c(p);
  c.access(0, AccessType::kWrite);
  c.access(64, AccessType::kRead);
  const auto r = c.access(128, AccessType::kRead);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteHitMarksDirty) {
  auto p = small_cache();
  p.size_bytes = 2 * 64;
  Cache c(p);
  c.access(0, AccessType::kRead);
  c.access(0, AccessType::kWrite);  // hit, dirties the line
  c.access(64, AccessType::kRead);
  const auto r = c.access(128, AccessType::kRead);
  EXPECT_TRUE(r.evicted_dirty);
}

TEST(Cache, ContainsIsNonMutating) {
  Cache c(small_cache());
  EXPECT_FALSE(c.contains(0));
  const auto before = c.stats().accesses();
  c.contains(0);
  EXPECT_EQ(c.stats().accesses(), before);
  c.access(0, AccessType::kRead);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(63));
  EXPECT_FALSE(c.contains(64));
}

TEST(Cache, InvalidateReturnsDirtiness) {
  Cache c(small_cache());
  c.access(0, AccessType::kWrite);
  c.access(64, AccessType::kRead);
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_FALSE(c.invalidate(64));
  EXPECT_FALSE(c.invalidate(128));  // absent
  EXPECT_FALSE(c.contains(0));
}

TEST(Cache, EvictionHookObservesAccessCount) {
  auto p = small_cache();
  p.size_bytes = 2 * 64;
  Cache c(p);
  std::vector<EvictionInfo> evs;
  c.set_eviction_hook([&](const EvictionInfo& e) { evs.push_back(e); });
  c.access(0, AccessType::kRead);   // install (1 access)
  c.access(0, AccessType::kRead);   // hit (2)
  c.access(0, AccessType::kRead);   // hit (3)
  c.access(64, AccessType::kRead);
  c.access(128, AccessType::kRead); // evicts line 0
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].line_addr, 0u);
  EXPECT_EQ(evs[0].access_count, 3u);
}

TEST(Cache, FlushEmitsAllValidLines) {
  Cache c(small_cache());
  int evictions = 0;
  c.set_eviction_hook([&](const EvictionInfo&) { ++evictions; });
  c.access(0, AccessType::kRead);
  c.access(4096, AccessType::kWrite);
  c.flush();
  EXPECT_EQ(evictions, 2);
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, LargeLineGranularity) {
  CacheParams p;
  p.size_bytes = 1 * MiB;
  p.ways = 16;
  p.line_bytes = 64 * KiB;
  Cache c(p);
  c.access(0, AccessType::kRead);
  EXPECT_TRUE(c.contains(64 * KiB - 1));
  EXPECT_FALSE(c.contains(64 * KiB));
}

TEST(Cache, HitRateMath) {
  Cache c(small_cache());
  c.access(0, AccessType::kRead);
  c.access(0, AccessType::kRead);
  c.access(0, AccessType::kRead);
  c.access(0, AccessType::kRead);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.75);
}

TEST(CacheSnapshot, RoundTripRestoresLinesStatsAndRecency) {
  // Save, load into a fresh cache of the same shape and save again: the
  // two payloads match, and so do the hits and misses that follow.
  Cache c(small_cache());
  Rng rng(11);
  const auto traffic = [](Cache& cache, Rng& r, int n) {
    for (int i = 0; i < n; ++i) {
      const Addr a = r.next_below(256) * 64;
      cache.access(a, r.next_below(4) == 0 ? AccessType::kWrite
                                        : AccessType::kRead);
    }
  };
  traffic(c, rng, 5000);

  snap::Writer first;
  snap::Archive save_first(first);
  c.serialize(save_first);
  const std::string path =
      std::string(::testing::TempDir()) + "/cache_roundtrip.bbsnap";
  first.commit(path);
  Cache restored(small_cache());
  snap::Reader r(path);
  snap::Archive load(r);
  restored.serialize(load);
  EXPECT_TRUE(r.at_end());
  snap::Writer second;
  snap::Archive save_second(second);
  restored.serialize(save_second);
  EXPECT_EQ(first.payload(), second.payload());

  Rng a = rng;
  Rng b = rng;
  traffic(c, a, 5000);
  traffic(restored, b, 5000);
  EXPECT_EQ(c.stats().hits, restored.stats().hits);
  EXPECT_EQ(c.stats().misses, restored.stats().misses);
  EXPECT_EQ(c.stats().evictions, restored.stats().evictions);
  EXPECT_EQ(c.stats().writebacks, restored.stats().writebacks);
  std::remove(path.c_str());
}

TEST(CacheSnapshot, FlagByteAboveOneFailsClosed) {
  // Line bytes land in the line structs as they are: a restore rejects a
  // valid or dirty byte of 2, and accepts the same image with a 1. 256
  // lines span two table pages, so the line table's bytes differ from
  // the one-page LRU stamp table's.
  CacheParams p = small_cache();
  p.size_bytes = 16 * KiB;
  Cache c(p);
  const std::string payload = snap::testing::payload_of(c);
  const auto crafted = [&payload](auto set) {
    ZeroArray<Cache::Line> clean(256);
    ZeroArray<Cache::Line> patched(256);
    set(patched[1]);
    return snap::testing::replace_once(payload,
                                       snap::testing::table_bytes(clean),
                                       snap::testing::table_bytes(patched));
  };
  Cache bad_valid(p);
  EXPECT_THROW(snap::testing::restore(
                   crafted([](Cache::Line& l) { l.valid = 2; }), bad_valid),
               snap::SnapshotError);
  Cache bad_dirty(p);
  EXPECT_THROW(snap::testing::restore(
                   crafted([](Cache::Line& l) { l.dirty = 2; }), bad_dirty),
               snap::SnapshotError);
  Cache good(p);
  EXPECT_NO_THROW(snap::testing::restore(
      crafted([](Cache::Line& l) { l.valid = 1; }), good));
  EXPECT_TRUE(good.contains(0));  // tag 0 in way 1 of set 0, now valid
}

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<u64, u32, u64>> {};

TEST_P(CacheGeometryTest, FillsWholeCapacityBeforeEvicting) {
  const auto [size, ways, line] = GetParam();
  CacheParams p;
  p.size_bytes = size;
  p.ways = ways;
  p.line_bytes = line;
  Cache c(p);
  const u64 lines = size / line;
  for (u64 i = 0; i < lines; ++i) {
    const auto r = c.access(i * line, AccessType::kRead);
    ASSERT_FALSE(r.hit);
    ASSERT_FALSE(r.evicted) << "premature eviction at line " << i;
  }
  // One more distinct line must evict.
  EXPECT_TRUE(c.access(lines * line, AccessType::kRead).evicted);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(u64{4 * KiB}, 2u, u64{64}),
                      std::make_tuple(u64{64 * KiB}, 4u, u64{64}),
                      std::make_tuple(u64{256 * KiB}, 8u, u64{64}),
                      std::make_tuple(u64{1 * MiB}, 16u, u64{4 * KiB}),
                      std::make_tuple(u64{8 * MiB}, 16u, u64{64})));

}  // namespace
}  // namespace bb::cache
