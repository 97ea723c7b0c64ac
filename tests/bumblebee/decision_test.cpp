// Focused tests of the Section III-E decision lattice: spatial summary,
// SL sign, Rh, the hotness threshold T, and the movement each combination
// must (or must not) trigger.
#include <gtest/gtest.h>

#include "bumblebee/controller.h"
#include "bumblebee/set_state.h"

namespace bb::bumblebee {
namespace {

Geometry tiny_geometry() {
  BumblebeeConfig cfg;
  Geometry g;
  g.page_bytes = cfg.page_bytes;
  g.block_bytes = cfg.block_bytes;
  g.blocks_per_page = cfg.blocks_per_page();
  g.sets = 1;
  g.m = 16;
  g.n = 4;
  return g;
}

TEST(SpatialSummary, CountsModes) {
  const Geometry g = tiny_geometry();
  SetTable table(g, 8, 4095);
  SetState st = table[0];
  // Frame 0: cHBM. Frame 1: mHBM dense. Frame 2: mHBM sparse. Frame 3 free.
  st.ble[0].mode = Ble::Mode::kCache;
  st.ble[1].mode = Ble::Mode::kMem;
  for (u32 b = 0; b < 20; ++b) st.valid(1).set(b);  // 20/32 accessed
  st.ble[2].mode = Ble::Mode::kMem;
  st.valid(2).set(0);  // 1/32 accessed
  const auto s = spatial_summary(st, g.blocks_per_page);
  EXPECT_EQ(s.nc, 1u);
  EXPECT_EQ(s.na, 1u);
  EXPECT_EQ(s.nn, 1u);
  EXPECT_EQ(s.sl(), -1);
}

TEST(SpatialSummary, HalfAccessedCountsAsDense) {
  const Geometry g = tiny_geometry();
  SetTable table(g, 8, 4095);
  SetState st = table[0];
  st.ble[0].mode = Ble::Mode::kMem;
  for (u32 b = 0; b < 16; ++b) st.valid(0).set(b);  // exactly half
  const auto s = spatial_summary(st, g.blocks_per_page);
  EXPECT_EQ(s.na, 1u);
  EXPECT_EQ(s.nn, 0u);
}

TEST(SpatialSummary, EmptySetIsAllZero) {
  const Geometry g = tiny_geometry();
  SetTable table(g, 8, 4095);
  SetState st = table[0];
  const auto s = spatial_summary(st, g.blocks_per_page);
  EXPECT_EQ(s.nc + s.na + s.nn, 0u);
  EXPECT_EQ(s.sl(), 0);
}

TEST(SetState, FreeFrameSearch) {
  const Geometry g = tiny_geometry();
  SetTable table(g, 8, 4095);
  SetState st = table[0];
  EXPECT_EQ(st.free_hbm_frame(), 0u);
  st.ble[0].mode = Ble::Mode::kCache;
  st.ble[1].mode = Ble::Mode::kMem;
  EXPECT_EQ(st.free_hbm_frame(), 2u);
  EXPECT_EQ(st.free_hbm_frames(), 2u);
  EXPECT_FALSE(st.rh_high());
  st.ble[2].mode = Ble::Mode::kMem;
  st.ble[3].mode = Ble::Mode::kCache;
  EXPECT_EQ(st.free_hbm_frame(), kNoPage);
  EXPECT_TRUE(st.rh_high());
  EXPECT_DOUBLE_EQ(st.rh(), 1.0);
}

TEST(SetState, CacheFrameLookup) {
  const Geometry g = tiny_geometry();
  SetTable table(g, 8, 4095);
  SetState st = table[0];
  st.ble[2].mode = Ble::Mode::kCache;
  st.ble[2].ple = 7;
  EXPECT_EQ(st.cache_frame_of(7), 2u);
  EXPECT_EQ(st.cache_frame_of(8), kNoPage);
  // mHBM frames are not cache copies.
  st.ble[1].mode = Ble::Mode::kMem;
  st.ble[1].ple = 9;
  EXPECT_EQ(st.cache_frame_of(9), kNoPage);
}

TEST(SetState, FreeDramFramePrefersOwnSlot) {
  const Geometry g = tiny_geometry();
  SetTable table(g, 8, 4095);
  SetState st = table[0];
  EXPECT_EQ(st.free_dram_frame(g.m, 5), 5u);
  st.occup.set(5);
  EXPECT_EQ(st.free_dram_frame(g.m, 5), 0u);
  for (u32 f = 0; f < g.m; ++f) st.occup.set(f);
  EXPECT_EQ(st.free_dram_frame(g.m, 5), kNoPage);
}

// Behavioural lattice through a real controller on one remapping set.
class DecisionFixture : public ::testing::Test {
 protected:
  DecisionFixture()
      : hbm_([] {
          auto p = mem::DramTimingParams::hbm2_1gb();
          p.capacity_bytes = 16 * MiB;  // 32 sets
          return p;
        }()),
        dram_([] {
          auto p = mem::DramTimingParams::ddr4_3200_10gb();
          p.capacity_bytes = 160 * MiB;
          return p;
        }()) {}

  static constexpr u64 kSetStride = 32 * 64 * KiB;  // stays in set 0

  void touch(BumblebeeController& c, u64 page, u64 block, int times) {
    for (int i = 0; i < times; ++i) {
      now_ += 50000;
      c.access(page * kSetStride + block * 2048, AccessType::kRead, now_);
    }
  }

  mem::DramDevice hbm_;
  mem::DramDevice dram_;
  Tick now_ = 0;
};

TEST_F(DecisionFixture, SingleTouchCachesOneBlockOnly) {
  BumblebeeController c(BumblebeeConfig::baseline(), hbm_, dram_);
  touch(c, 0, 0, 1);
  // React-fast caching: one 2 KB block fetched, no 64 KB page movement.
  EXPECT_EQ(c.bb_stats().page_migrations, 0u);
  EXPECT_EQ(c.bb_stats().block_fetches, 1u);
  EXPECT_EQ(c.ratio().mhbm_frames, 0u);
}

TEST_F(DecisionFixture, BlockAccumulationSwitchesToMem) {
  BumblebeeController c(BumblebeeConfig::baseline(), hbm_, dram_);
  // Touch most blocks of one page: once "most blocks are cached" the
  // frame must switch cHBM -> mHBM, fetching only the missing blocks.
  for (u64 b = 0; b < 20; ++b) touch(c, 0, b, 1);
  EXPECT_GE(c.bb_stats().cache_to_mem_switches, 1u);
  EXPECT_EQ(c.ratio().mhbm_frames, 1u);
  EXPECT_TRUE(c.locate(0).in_hbm);
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(DecisionFixture, PromotionFollowsSpatialEvidenceAndSelfLimits) {
  BumblebeeController c(BumblebeeConfig::baseline(), hbm_, dram_);
  // Allocate pages 2 and 3 early with single touches: they land in DRAM
  // (nothing hot in HBM yet) and each caches one block (Nc = 2).
  touch(c, 2, 0, 1);
  touch(c, 3, 0, 1);
  // Build spatial evidence: three pages accumulate most blocks and end up
  // mHBM with dense access ratios (Na = 3) -> SL = 3 - 0 - 2 = +1.
  for (u64 p : {0ull, 1ull, 4ull}) {
    for (u64 b = 0; b < 20; ++b) touch(c, p, b, 1);
  }
  ASSERT_GE(c.ratio().mhbm_frames, 3u);
  const auto before = c.ratio();

  // Page 2 re-accessed under SL > 0: rule (1) promotes its cached copy to
  // mHBM (fetching only the missing blocks). Promotion converts Nc to Nn,
  // leaving SL unchanged, so page 3 promotes as well.
  touch(c, 2, 0, 2);
  const auto after = c.ratio();
  EXPECT_EQ(after.mhbm_frames, before.mhbm_frames + 1)
      << "re-accessed cached page must be promoted under SL > 0";
  touch(c, 3, 0, 2);
  ASSERT_EQ(c.ratio().mhbm_frames, after.mhbm_frames + 1);

  // Fresh cold pages get cached (Nc grows) and flip SL negative:
  // SL = Na(3) - Nn(2) - Nc(2) = -1 -> promotion stops.
  touch(c, 5, 0, 1);
  touch(c, 6, 0, 1);
  const u64 mhbm = c.ratio().mhbm_frames;
  touch(c, 5, 0, 2);  // re-accesses, but SL < 0 now
  EXPECT_EQ(c.ratio().mhbm_frames, mhbm);
  EXPECT_GT(c.ratio().chbm_frames, 0u);
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(DecisionFixture, ColdChallengerBlockedAtHighRh) {
  BumblebeeController c(BumblebeeConfig::baseline(), hbm_, dram_);
  // Make all 8 frames hot mHBM pages.
  for (u64 p = 0; p < 8; ++p) touch(c, p, 0, 4);
  const auto before = c.ratio();
  ASSERT_EQ(before.free_frames + before.chbm_frames + before.mhbm_frames,
            32u * 8u);
  // A page touched once (h = 1 <= T) must not displace anything.
  touch(c, 9, 0, 1);
  EXPECT_EQ(c.bb_stats().chbm_evictions + c.bb_stats().mhbm_evictions, 0u);
  EXPECT_FALSE(c.locate(9 * kSetStride).in_hbm);
}

TEST_F(DecisionFixture, HotChallengerDisplacesColdestAtHighRh) {
  BumblebeeController c(BumblebeeConfig::baseline(), hbm_, dram_);
  for (u64 p = 0; p < 8; ++p) touch(c, p, 0, 3);
  // Challenger hotter than T (= 3): needs > 3 touches.
  touch(c, 9, 0, 8);
  EXPECT_GT(c.bb_stats().chbm_evictions + c.bb_stats().mhbm_evictions +
                c.bb_stats().mem_to_cache_buffers,
            0u);
  EXPECT_TRUE(c.check_invariants());
}

}  // namespace
}  // namespace bb::bumblebee
