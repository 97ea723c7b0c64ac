#include <gtest/gtest.h>

#include "baselines/alloy_cache.h"
#include "baselines/banshee.h"
#include "baselines/chameleon.h"
#include "baselines/factory.h"
#include "baselines/hybrid2.h"
#include "baselines/mempod.h"
#include "baselines/pom.h"
#include "baselines/unison_cache.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "snapshot_testing.h"

namespace bb::baselines {
namespace {

mem::DramTimingParams small_hbm() {
  auto p = mem::DramTimingParams::hbm2_1gb();
  p.capacity_bytes = 128 * MiB;
  return p;
}
mem::DramTimingParams small_dram() {
  auto p = mem::DramTimingParams::ddr4_3200_10gb();
  p.capacity_bytes = 1 * GiB;
  return p;
}

class BaselineFixture : public ::testing::Test {
 protected:
  BaselineFixture() : hbm_(small_hbm()), dram_(small_dram()) {}
  mem::DramDevice hbm_;
  mem::DramDevice dram_;
};

// ------------------------------------------------------------ Alloy Cache

TEST_F(BaselineFixture, AlloyMissFillsThenHits) {
  AlloyCacheController c(hbm_, dram_);
  const auto miss = c.access(0x1000, AccessType::kRead, 1000);
  EXPECT_FALSE(miss.served_by_hbm);
  const auto hit = c.access(0x1000, AccessType::kRead, miss.complete + 1000);
  EXPECT_TRUE(hit.served_by_hbm);
}

TEST_F(BaselineFixture, AlloyTadProbeIsMetadataLatency) {
  AlloyCacheController c(hbm_, dram_);
  const auto r = c.access(0, AccessType::kRead, 0);
  EXPECT_GT(r.metadata_latency, 0u);  // the in-HBM TAD probe
}

TEST_F(BaselineFixture, AlloyDirectMappedConflict) {
  AlloyCacheController c(hbm_, dram_);
  const u64 lines = c.line_count();
  const Addr a = 0;
  const Addr b = lines * 64;  // same slot, different tag
  c.access(a, AccessType::kRead, 0);
  c.access(b, AccessType::kRead, 100000);
  // a was displaced by b.
  const auto r = c.access(a, AccessType::kRead, 200000);
  EXPECT_FALSE(r.served_by_hbm);
}

TEST_F(BaselineFixture, AlloyDirtyVictimWritesBack) {
  AlloyCacheController c(hbm_, dram_);
  const u64 lines = c.line_count();
  c.access(0, AccessType::kWrite, 0);           // fill
  c.access(0, AccessType::kWrite, 50000);       // dirty hit
  c.access(lines * 64, AccessType::kRead, 100000);  // conflict evicts
  const int wb = static_cast<int>(mem::TrafficClass::kWriteback);
  EXPECT_GT(dram_.stats().write_bytes[wb], 0u);
}

TEST_F(BaselineFixture, AlloyNoSramMetadata) {
  AlloyCacheController c(hbm_, dram_);
  EXPECT_EQ(c.metadata_sram_bytes(), 0u);
}

// ----------------------------------------------------------- Unison Cache

TEST_F(BaselineFixture, UnisonPageMissThenBlockHit) {
  UnisonCacheController c(hbm_, dram_);
  const auto miss = c.access(0x2000, AccessType::kRead, 0);
  EXPECT_FALSE(miss.served_by_hbm);
  const auto hit = c.access(0x2000, AccessType::kRead, miss.complete + 1000);
  EXPECT_TRUE(hit.served_by_hbm);
}

TEST_F(BaselineFixture, UnisonFootprintPredictionLearns) {
  UnisonCacheController c(hbm_, dram_);
  Tick now = 0;
  // First residency: touch blocks 0..3 of page 0.
  for (int b = 0; b < 4; ++b) {
    now += 100000;
    c.access(static_cast<Addr>(b) * 64, AccessType::kRead, now);
  }
  // Evict page 0 by filling its set with conflicting pages.
  const u64 stride = static_cast<u64>(c.set_count()) * 4 * KiB;
  for (u64 k = 1; k <= 4; ++k) {
    now += 100000;
    c.access(k * stride, AccessType::kRead, now);
  }
  const u64 fetched_before = c.stats().blocks_fetched;
  // Page 0 returns: the predicted footprint (4 blocks) is fetched at once.
  now += 100000;
  c.access(0, AccessType::kRead, now);
  EXPECT_GE(c.stats().blocks_fetched - fetched_before, 4u);
}

TEST_F(BaselineFixture, UnisonRandomTrafficKeepsWayInvariants) {
  UnisonCacheController c(hbm_, dram_);
  EXPECT_TRUE(c.check_invariants());
  Rng rng(23);
  Tick now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += 50000;
    // Eight pages compete for each of four sets, so ways are evicted and
    // refilled with a learned footprint; reads and writes mix.
    const u64 page = rng.next_below(4) + rng.next_below(8) * c.set_count();
    const Addr a = page * 4 * KiB + rng.next_below(64) * 64;
    c.access(a, rng.next_below(3) == 0 ? AccessType::kWrite
                                       : AccessType::kRead,
             now);
    if (i % 256 == 0) {
      ASSERT_TRUE(c.check_invariants()) << "access " << i;
    }
  }
  EXPECT_GT(c.stats().evictions, 100u);
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(BaselineFixture, UnisonTagTrafficInHbm) {
  UnisonCacheController c(hbm_, dram_);
  c.access(0, AccessType::kRead, 0);
  const int meta = static_cast<int>(mem::TrafficClass::kMetadata);
  EXPECT_GT(hbm_.stats().read_bytes[meta], 0u);
}

// ---------------------------------------------------------------- Banshee

TEST_F(BaselineFixture, BansheeLookupIsSramCheap) {
  BansheeController c(hbm_, dram_);
  const auto r = c.access(0, AccessType::kRead, 0);
  EXPECT_EQ(r.metadata_latency, ns_to_ticks(2.0));
}

TEST_F(BaselineFixture, BansheeFrequencyGateSuppressesThrash) {
  BansheeController c(hbm_, dram_);
  // A single sampled miss must not immediately fill (replacement requires
  // beating the victim by the threshold, but empty ways fill directly on
  // sampled misses only).
  Tick now = 0;
  u64 fills = 0;
  for (int i = 0; i < 64; ++i) {
    now += 100000;
    c.access(static_cast<Addr>(i) * 8 * MiB, AccessType::kRead, now);
    fills = c.stats().blocks_fetched;
  }
  // With sample rate 8, far fewer fills than misses.
  EXPECT_LT(fills / (4 * KiB / 64), 64u);
}

TEST_F(BaselineFixture, BansheeRepeatedPageBecomesResident) {
  BansheeController c(hbm_, dram_);
  Tick now = 0;
  bool hit = false;
  for (int i = 0; i < 64 && !hit; ++i) {
    now += 100000;
    hit = c.access(64 * static_cast<Addr>(i % 8), AccessType::kRead, now)
              .served_by_hbm;
  }
  EXPECT_TRUE(hit);
}

TEST_F(BaselineFixture, BansheeRandomTrafficKeepsWayInvariants) {
  BansheeController c(hbm_, dram_);
  EXPECT_TRUE(c.check_invariants());
  const BansheeConfig cfg;
  const u64 sets = hbm_.capacity() / cfg.page_bytes / cfg.ways;
  Rng rng(24);
  Tick now = 0;
  // Each phase touches its own four pages in each of four sets, twenty
  // times as often as the phase before, so its pages' sampled miss counts
  // outgrow the residents' frequency counters and replace them.
  u64 accesses = 320;
  for (u64 phase = 0; phase < 3; ++phase, accesses *= 20) {
    for (u64 i = 0; i < accesses; ++i) {
      now += 50000;
      const u64 page =
          rng.next_below(4) + (phase * 4 + rng.next_below(4)) * sets;
      const Addr a = page * cfg.page_bytes + rng.next_below(64) * 64;
      c.access(a, rng.next_below(3) == 0 ? AccessType::kWrite
                                         : AccessType::kRead,
               now);
      if (i % 256 == 0) {
        ASSERT_TRUE(c.check_invariants()) << "phase " << phase << " access "
                                          << i;
      }
    }
  }
  EXPECT_GT(c.stats().evictions, 10u);
  EXPECT_TRUE(c.check_invariants());
}

// -------------------------------------------------------------- Chameleon

TEST_F(BaselineFixture, ChameleonAllVisible) {
  ChameleonController c(hbm_, dram_);
  EXPECT_EQ(c.paging().config().visible_bytes,
            hbm_.capacity() + dram_.capacity());
}

TEST_F(BaselineFixture, ChameleonHbmNativeSegmentServedNear) {
  ChameleonController c(hbm_, dram_);
  // In-set segment index m_ (the last of each group) starts in the HBM slot.
  const u64 m = c.segments_per_set() - 1;
  const Addr a = m * 2 * KiB;  // set 0, segment m
  const auto r = c.access(a, AccessType::kRead, 0);
  EXPECT_TRUE(r.served_by_hbm);
}

TEST_F(BaselineFixture, ChameleonHotSegmentSwapsIn) {
  ChameleonController c(hbm_, dram_);
  Tick now = 0;
  hmm::HmmResult r;
  for (int i = 0; i < 32; ++i) {
    now += 100000;
    r = c.access(0, AccessType::kRead, now);  // hammer segment 0 of set 0
    if (r.served_by_hbm) break;
  }
  EXPECT_TRUE(r.served_by_hbm);
  EXPECT_GT(c.stats().swaps, 0u);
}

TEST_F(BaselineFixture, ChameleonMetadataExceedsSram) {
  ChameleonController c(hbm_, dram_);
  EXPECT_GT(c.metadata_sram_bytes(), 512 * KiB);
}

TEST_F(BaselineFixture, ChameleonResetStatsClearsCountersKeepsPlacement) {
  // Regression for the warmup-reset path: the override must clear both the
  // base HmmStats and the metadata model's counters, while segment
  // placement survives (bb_analyze stats-reset rule).
  ChameleonController c(hbm_, dram_);
  const u64 m = c.segments_per_set() - 1;
  const Addr a = m * 2 * KiB;  // HBM-native segment
  c.access(a, AccessType::kRead, 0);
  EXPECT_GT(c.stats().requests, 0u);
  EXPECT_GT(c.stats().total_metadata_latency, 0u);
  c.reset_stats();
  EXPECT_EQ(c.stats().requests, 0u);
  EXPECT_EQ(c.stats().total_metadata_latency, 0u);
  // Placement survived: the segment is still served from HBM.
  EXPECT_TRUE(c.access(a, AccessType::kRead, 100000).served_by_hbm);
}

TEST_F(BaselineFixture, ChameleonFreshControllerMapsSegmentsToNativeFrames) {
  ChameleonController c(hbm_, dram_);
  for (u32 set = 0; set < c.set_count(); ++set) {
    for (u32 f = 0; f < c.segments_per_set(); ++f) {
      ASSERT_EQ(c.segment_at(set, f), f) << "set " << set;
    }
  }
  EXPECT_TRUE(c.check_invariants());
}

/// The one set whose permutation is not the identity, or `sets` if none.
template <class Controller>
u32 moved_set(const Controller& c, u32 sets, u32 frames) {
  for (u32 set = 0; set < sets; ++set) {
    for (u32 f = 0; f < frames; ++f) {
      if (c.segment_at(set, f) != f) return set;
    }
  }
  return sets;
}

TEST_F(BaselineFixture, ChameleonSwapStoresATransposition) {
  ChameleonController c(hbm_, dram_);
  const u32 m = c.segments_per_set() - 1;
  Tick now = 0;
  while (c.stats().swaps == 0 && now < 100 * 100000) {
    now += 100000;
    c.access(0, AccessType::kRead, now);
  }
  ASSERT_EQ(c.stats().swaps, 1u);
  const u32 set = moved_set(c, c.set_count(), m + 1);
  ASSERT_LT(set, c.set_count());
  // The hot segment now sits in the HBM frame and the HBM-native segment
  // in the hot segment's old frame; every other frame is unchanged.
  const u32 hot = c.segment_at(set, m);
  ASSERT_LT(hot, m);
  EXPECT_EQ(c.segment_at(set, hot), m);
  for (u32 f = 0; f < m; ++f) {
    if (f != hot) {
      EXPECT_EQ(c.segment_at(set, f), f);
    }
  }
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(BaselineFixture, ChameleonRandomTrafficKeepsPermutations) {
  ChameleonController c(hbm_, dram_);
  Rng rng(21);
  Tick now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += 50000;
    // A small hot footprint so segments swap back and forth.
    c.access(rng.next_below(64) * 2 * KiB, AccessType::kRead, now);
  }
  EXPECT_GT(c.stats().swaps, 10u);
  EXPECT_TRUE(c.check_invariants());
}

// ---------------------------------------------------------------- Hybrid2

TEST_F(BaselineFixture, Hybrid2FreshControllerMapsPagesToNativeFrames) {
  Hybrid2Controller c(hbm_, dram_);
  const u32 frames = c.dram_pages_per_set() + Hybrid2Config{}.hbm_ways;
  for (u32 set = 0; set < c.remap_sets(); ++set) {
    for (u32 f = 0; f < frames; ++f) {
      ASSERT_EQ(c.segment_at(set, f), f) << "set " << set;
    }
  }
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(BaselineFixture, Hybrid2PromotionStoresATransposition) {
  Hybrid2Controller c(hbm_, dram_);
  const u32 m = c.dram_pages_per_set();
  const u32 frames = m + Hybrid2Config{}.hbm_ways;
  Tick now = 0;
  while (c.stats().swaps == 0 && now < 100 * 100000) {
    now += 100000;
    c.access(0, AccessType::kRead, now);
  }
  ASSERT_EQ(c.stats().swaps, 1u);
  const u32 set = moved_set(c, c.remap_sets(), frames);
  ASSERT_LT(set, c.remap_sets());
  // Exactly one mHBM way now holds an off-chip page, which swapped with
  // that way's native page.
  u32 moved_way = frames;
  for (u32 f = m; f < frames; ++f) {
    if (c.segment_at(set, f) != f) {
      EXPECT_EQ(moved_way, frames) << "two ways moved";
      moved_way = f;
    }
  }
  ASSERT_LT(moved_way, frames);
  const u32 promoted = c.segment_at(set, moved_way);
  ASSERT_LT(promoted, m);
  EXPECT_EQ(c.segment_at(set, promoted), moved_way);
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(BaselineFixture, Hybrid2RandomTrafficKeepsPermutations) {
  Hybrid2Controller c(hbm_, dram_);
  Rng rng(22);
  Tick now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += 50000;
    c.access(rng.next_below(4096) * 256, AccessType::kRead, now);
  }
  EXPECT_GT(c.stats().swaps, 10u);
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(BaselineFixture, Hybrid2CacheMissFillsBlock) {
  Hybrid2Controller c(hbm_, dram_);
  const auto miss = c.access(0, AccessType::kRead, 0);
  EXPECT_FALSE(miss.served_by_hbm);
  const auto hit = c.access(0, AccessType::kRead, miss.complete + 1000);
  EXPECT_TRUE(hit.served_by_hbm);
  // Within the same 256 B block.
  const auto hit2 = c.access(192, AccessType::kRead, hit.complete + 1000);
  EXPECT_TRUE(hit2.served_by_hbm);
}

TEST_F(BaselineFixture, Hybrid2HotPagePromotesWithSwap) {
  Hybrid2Controller c(hbm_, dram_);
  Tick now = 0;
  for (int i = 0; i < 64; ++i) {
    now += 100000;
    c.access(static_cast<Addr>(i % 8) * 256, AccessType::kRead, now);
  }
  EXPECT_GT(c.stats().swaps, 0u);
}

TEST_F(BaselineFixture, Hybrid2VisibleExcludesCacheSlice) {
  Hybrid2Controller c(hbm_, dram_);
  EXPECT_EQ(c.paging().config().visible_bytes,
            hbm_.capacity() + dram_.capacity() - 64 * MiB);
}

TEST_F(BaselineFixture, Hybrid2MetadataExceedsSram) {
  Hybrid2Controller c(hbm_, dram_);
  EXPECT_GT(c.metadata_sram_bytes(), 512 * KiB);
}

// ------------------------------------------- geometry guards (all builds)

TEST_F(BaselineFixture, Hybrid2RejectsHbmNoLargerThanCacheSlice) {
  Hybrid2Config cfg;
  cfg.cache_bytes = hbm_.capacity();
  EXPECT_THROW(Hybrid2Controller(hbm_, dram_, {}, cfg),
               std::invalid_argument);
  cfg.cache_bytes = 2 * hbm_.capacity();
  EXPECT_THROW(Hybrid2Controller(hbm_, dram_, {}, cfg),
               std::invalid_argument);
}

TEST_F(BaselineFixture, Hybrid2RejectsMhbmSmallerThanOneSet) {
  // Seven mHBM pages against eight ways per set.
  Hybrid2Config cfg;
  cfg.cache_bytes = hbm_.capacity() - 7 * cfg.page_bytes;
  EXPECT_THROW(Hybrid2Controller(hbm_, dram_, {}, cfg),
               std::invalid_argument);
}

TEST_F(BaselineFixture, Hybrid2RejectsSetsPastU8Frames) {
  // 16 ways of 64 MiB mHBM against 1 GiB DRAM: 256 + 16 frames per set.
  Hybrid2Config cfg;
  cfg.hbm_ways = 16;
  EXPECT_THROW(Hybrid2Controller(hbm_, dram_, {}, cfg),
               std::invalid_argument);
}

TEST_F(BaselineFixture, Hybrid2RejectsZeroGeometry) {
  const auto rejects = [&](auto edit) {
    Hybrid2Config cfg;
    edit(cfg);
    EXPECT_THROW(Hybrid2Controller(hbm_, dram_, {}, cfg),
                 std::invalid_argument);
  };
  rejects([](Hybrid2Config& c) { c.hbm_ways = 0; });
  rejects([](Hybrid2Config& c) { c.page_bytes = 0; });
  rejects([](Hybrid2Config& c) { c.block_bytes = 0; });
  rejects([](Hybrid2Config& c) { c.cache_ways = 0; });
  rejects([](Hybrid2Config& c) { c.cache_bytes = 0; });  // no cHBM set
}

TEST_F(BaselineFixture, PomRejectsZeroGeometry) {
  PomConfig cfg;
  cfg.sector_bytes = 0;
  EXPECT_THROW(PomController(hbm_, dram_, {}, cfg), std::invalid_argument);
  cfg.sector_bytes = 2 * hbm_.capacity();  // no whole set
  EXPECT_THROW(PomController(hbm_, dram_, {}, cfg), std::invalid_argument);
}

TEST(BaselineGuards, PomRejectsSetsPastU8Frames) {
  // 4 MiB HBM against 1 GiB DRAM: 256 + 1 frames per set.
  auto hbm_params = small_hbm();
  hbm_params.capacity_bytes = 4 * MiB;
  mem::DramDevice hbm(hbm_params);
  mem::DramDevice dram(small_dram());
  EXPECT_THROW(PomController(hbm, dram), std::invalid_argument);
}

TEST_F(BaselineFixture, MemPodRejectsEmptyPod) {
  // 128 MiB pages over two pods leave each pod without an HBM page.
  MemPodConfig cfg;
  cfg.page_bytes = 128 * MiB;
  cfg.pods = 2;
  EXPECT_THROW(MemPodController(hbm_, dram_, {}, cfg),
               std::invalid_argument);
}

TEST_F(BaselineFixture, MemPodRejectsZeroGeometry) {
  MemPodConfig cfg;
  cfg.pods = 0;
  EXPECT_THROW(MemPodController(hbm_, dram_, {}, cfg),
               std::invalid_argument);
  cfg = MemPodConfig{};
  cfg.page_bytes = 0;
  EXPECT_THROW(MemPodController(hbm_, dram_, {}, cfg),
               std::invalid_argument);
}

TEST_F(BaselineFixture, PomSwapHeavyTrafficKeepsPermutations) {
  PomController c(hbm_, dram_);
  EXPECT_TRUE(c.check_invariants());
  const u64 sectors = c.sectors_per_set();
  const u64 sector_bytes = PomConfig{}.sector_bytes;
  Rng rng(25);
  Tick now = 0;
  for (u64 i = 0; i < 20000; ++i) {
    now += 50000;
    // Every 400 accesses a new sector of each of four sets turns hot, wins
    // the competing counter and swaps in; a quarter of the accesses hit a
    // random sector of the set instead.
    const u64 set = i % 4;
    const u64 sec = rng.next_below(4) == 0 ? rng.next_below(sectors)
                                           : (i / 400) % sectors;
    const Addr a = (set * sectors + sec) * sector_bytes +
                   rng.next_below(32) * 64;
    c.access(a, rng.next_below(3) == 0 ? AccessType::kWrite
                                       : AccessType::kRead,
             now);
    if (i % 256 == 0) {
      ASSERT_TRUE(c.check_invariants()) << "access " << i;
    }
  }
  EXPECT_GT(c.stats().swaps, 100u);
  EXPECT_TRUE(c.check_invariants());
}

TEST_F(BaselineFixture, MemPodSwapHeavyTrafficKeepsMapsInverse) {
  MemPodController c(hbm_, dram_);
  EXPECT_TRUE(c.check_invariants());
  const MemPodConfig cfg;
  Rng rng(26);
  Tick now = 0;
  for (u64 i = 0; i < 40000; ++i) {
    now += ns_to_ticks(50.0);
    // Every 4000 accesses (four migration intervals) sixteen new off-chip
    // pages of pods 0 and 1 turn hot. They migrate in and displace the
    // previous phase's pages, which have gone cold.
    const u64 pod = i % 2;
    const u64 page = (i / 4000) * 16 + rng.next_below(16);
    const Addr a = (page * cfg.pods + pod) * cfg.page_bytes +
                   rng.next_below(32) * 64;
    c.access(a, rng.next_below(3) == 0 ? AccessType::kWrite
                                       : AccessType::kRead,
             now);
    if (i % 1024 == 0) {
      ASSERT_TRUE(c.check_invariants()) << "access " << i;
    }
  }
  EXPECT_GT(c.interval_migrations(), 100u);
  EXPECT_TRUE(c.check_invariants());
}

// ----------------------------------------------------------------- factory

TEST_F(BaselineFixture, FactoryCreatesEveryDesign) {
  for (const auto& name : figure8_designs()) {
    auto d = make_design(name, hbm_, dram_);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name(), name);
  }
  for (const auto& name : figure7_designs()) {
    auto d = make_design(name, hbm_, dram_);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name(), name);
  }
  auto base = make_design("DRAM-only", hbm_, dram_);
  EXPECT_EQ(base->name(), "DRAM-only");
}

TEST_F(BaselineFixture, FactoryRejectsUnknown) {
  EXPECT_THROW(make_design("bogus", hbm_, dram_), std::invalid_argument);
}

TEST_F(BaselineFixture, AllDesignNamesConstructible) {
  // The advertised name lists and the factory cannot drift apart: every
  // listed name must construct, and the curated subsets must validate.
  for (const auto& name : all_design_names()) {
    auto d = make_design(name, hbm_, dram_);
    ASSERT_NE(d, nullptr) << name;
  }
  EXPECT_NO_THROW(require_design_names(all_design_names()));
  EXPECT_NO_THROW(require_design_names(comparison_designs()));
  EXPECT_NO_THROW(require_design_names(figure8_designs()));
  EXPECT_NO_THROW(require_design_names(figure7_designs()));
  EXPECT_THROW(require_design_names({"Bumblebee", "bogus"}),
               std::invalid_argument);
}

TEST_F(BaselineFixture, Figure8OrderMatchesPaper) {
  const auto& d = figure8_designs();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d.front(), "Banshee");
  EXPECT_EQ(d.back(), "Bumblebee");
}

class DesignSmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DesignSmokeTest, RandomLoadRunsAndAccounts) {
  mem::DramDevice hbm(small_hbm());
  mem::DramDevice dram(small_dram());
  auto c = make_design(GetParam(), hbm, dram);
  Rng rng(13);
  Tick now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += 30000;
    const Addr a = rng.next_below(512 * MiB) & ~Addr{63};
    const auto type =
        rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
    const auto r = c->access(a, type, now);
    ASSERT_GE(r.complete, now);
  }
  EXPECT_EQ(c->stats().requests, 5000u);
  EXPECT_GT(c->stats().total_latency, 0u);
  // Every design must produce some HBM activity except DRAM-only.
  if (std::string(GetParam()) != "DRAM-only") {
    EXPECT_GT(hbm.stats().total_bytes(), 0u);
  }
}

// ---------------------------------------------------------------- snapshots

TEST_F(BaselineFixture, EveryDesignRestoresItsOwnPayloadExactly) {
  // Random traffic fills every table a design keeps; a fresh controller
  // restored from the payload saves the same bytes again.
  for (const std::string& name : all_design_names()) {
    SCOPED_TRACE(name);
    auto live = make_design(name, hbm_, dram_);
    Rng rng(7);
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
      now += 20000;
      const Addr a = rng.next_below(256 * MiB / 64) * 64;
      live->access(a, rng.next_below(4) == 0 ? AccessType::kWrite
                                             : AccessType::kRead,
                   now);
    }
    const std::string payload = snap::testing::payload_of(*live);
    auto fresh = make_design(name, hbm_, dram_);
    snap::testing::restore(payload, *fresh);
    EXPECT_EQ(snap::testing::payload_of(*fresh), payload);
  }
}

TEST_F(BaselineFixture, AlloyRestoreOfDirtyInvalidSlotFailsClosed) {
  // A CRC-valid image whose dirty bitmap marks a slot the valid bitmap
  // does not hold: the restore's invariant check rejects it.
  AlloyCacheController c(hbm_, dram_);
  EXPECT_TRUE(c.check_invariants());
  const std::string payload = snap::testing::payload_of(c);
  BitMatrix clean(1, c.line_count());
  BitMatrix dirty_slot(1, c.line_count());
  dirty_slot.set(0, 12345);
  // The dirty bitmap is the last table; valid is the same shape before it.
  const std::string zero = snap::testing::payload_of(clean);
  ASSERT_GE(payload.size(), zero.size());
  ASSERT_EQ(payload.substr(payload.size() - zero.size()), zero);
  const std::string bad = payload.substr(0, payload.size() - zero.size()) +
                          snap::testing::payload_of(dirty_slot);
  AlloyCacheController fresh(hbm_, dram_);
  EXPECT_THROW(snap::testing::restore(bad, fresh), snap::SnapshotError);
  AlloyCacheController same(hbm_, dram_);
  EXPECT_NO_THROW(snap::testing::restore(payload, same));
}

// The eight baselines; every flat table each keeps goes through
// Archive::table.
const char* const kBaselines[] = {"Banshee", "AC",  "UC",      "Chameleon",
                                  "Hybrid2", "PoM", "SILC-FM", "MemPod"};

TEST_F(BaselineFixture, FreshControllerSnapshotIsSmall) {
  // A fresh controller's tables are all-zero pages, which a snapshot
  // stores as skips; a design that wrote its tables entry by entry would
  // spend megabytes here.
  for (const char* name : kBaselines) {
    SCOPED_TRACE(name);
    auto c = make_design(name, hbm_, dram_);
    EXPECT_LT(snap::testing::payload_of(*c).size(), 64 * KiB);
  }
}

/// Restores `design` from a fresh controller's payload in which element 0
/// of its all-zero table of `n` `T`s was changed by `set(element, value)`;
/// the restore must throw exactly when `rejected`.
template <class T, class Set>
void expect_element_check(const char* design, std::size_t n, Set set,
                          u8 value, bool rejected, mem::DramDevice& hbm,
                          mem::DramDevice& dram) {
  SCOPED_TRACE(std::string(design) + " byte " + std::to_string(value));
  auto live = make_design(design, hbm, dram);
  const std::string payload = snap::testing::payload_of(*live);
  ZeroArray<T> clean(n);
  ZeroArray<T> patched(n);
  set(patched[0], value);
  const std::string crafted = snap::testing::replace_once(
      payload, snap::testing::table_bytes(clean),
      snap::testing::table_bytes(patched));
  auto fresh = make_design(design, hbm, dram);
  if (rejected) {
    EXPECT_THROW(snap::testing::restore(crafted, *fresh), snap::SnapshotError);
  } else {
    EXPECT_NO_THROW(snap::testing::restore(crafted, *fresh));
  }
}

TEST_F(BaselineFixture, RestoreRejectsMalformedTableElements) {
  // Table bytes land in the element structs as they are, so a restore
  // checks every element: a flag byte of 2 or a non-zero padding byte
  // fails closed, while a flag of 1 is an ordinary valid or dirty entry.
  using BWay = BansheeController::Way;
  const std::size_t banshee_ways = hbm_.capacity() / BansheeConfig{}.page_bytes;
  const auto b_valid = [](BWay& w, u8 v) { w.valid = v; };
  expect_element_check<BWay>("Banshee", banshee_ways, b_valid, 2, true, hbm_,
                             dram_);
  expect_element_check<BWay>("Banshee", banshee_ways, b_valid, 1, false, hbm_,
                             dram_);
  expect_element_check<BWay>(
      "Banshee", banshee_ways, [](BWay& w, u8 v) { w.dirty = v; }, 2, true,
      hbm_, dram_);

  using UWay = UnisonCacheController::Way;
  const std::size_t uc_ways =
      static_cast<std::size_t>(UnisonCacheController(hbm_, dram_).set_count()) *
      UnisonConfig{}.ways;
  const auto u_valid = [](UWay& w, u8 v) { w.valid = v; };
  expect_element_check<UWay>("UC", uc_ways, u_valid, 2, true, hbm_, dram_);
  expect_element_check<UWay>("UC", uc_ways, u_valid, 1, false, hbm_, dram_);
  expect_element_check<UWay>(
      "UC", uc_ways, [](UWay& w, u8 v) { w.pad[6] = v; }, 1, true, hbm_,
      dram_);

  using Line = Hybrid2Controller::CacheLine;
  const Hybrid2Config h2;
  const std::size_t lines = h2.cache_bytes / h2.block_bytes;
  const auto h_valid = [](Line& l, u8 v) { l.valid = v; };
  expect_element_check<Line>("Hybrid2", lines, h_valid, 2, true, hbm_, dram_);
  expect_element_check<Line>("Hybrid2", lines, h_valid, 1, false, hbm_, dram_);
  expect_element_check<Line>(
      "Hybrid2", lines, [](Line& l, u8 v) { l.dirty = v; }, 2, true, hbm_,
      dram_);

  expect_element_check<PomController::SetEntry>(
      "PoM", PomController(hbm_, dram_).set_count(),
      [](PomController::SetEntry& e, u8 v) { e.pad = v; }, 1, true, hbm_,
      dram_);
  expect_element_check<MemPodController::MeaEntry>(
      "MemPod",
      static_cast<std::size_t>(MemPodController(hbm_, dram_).pod_count()) *
          MemPodConfig{}.mea_counters,
      [](MemPodController::MeaEntry& e, u8 v) { e.pad = v; }, 1, true, hbm_,
      dram_);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignSmokeTest,
                         ::testing::Values("DRAM-only", "Banshee", "AC", "UC",
                                           "Chameleon", "Hybrid2",
                                           "Bumblebee", "C-Only", "M-Only",
                                           "25%-C", "50%-C", "No-Multi",
                                           "Meta-H", "Alloc-D", "Alloc-H",
                                           "No-HMF"));

}  // namespace
}  // namespace bb::baselines
