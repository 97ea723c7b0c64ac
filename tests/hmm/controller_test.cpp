#include "hmm/controller.h"

#include <gtest/gtest.h>

#include <vector>

namespace bb::hmm {
namespace {

class Fixture : public ::testing::Test {
 protected:
  Fixture()
      : hbm_(mem::DramTimingParams::hbm2_1gb()),
        dram_(mem::DramTimingParams::ddr4_3200_10gb()) {}

  mem::DramDevice hbm_;
  mem::DramDevice dram_;
};

TEST_F(Fixture, DramOnlyServesFromDram) {
  DramOnlyController c(hbm_, dram_, PagingConfig{});
  const auto r = c.access(0x12340, AccessType::kRead, 1000);
  EXPECT_FALSE(r.served_by_hbm);
  EXPECT_GT(r.complete, 1000u);
  EXPECT_EQ(hbm_.stats().total_bytes(), 0u);
  EXPECT_GT(dram_.stats().total_bytes(), 0u);
}

TEST_F(Fixture, DramOnlyWrapsBeyondCapacity) {
  DramOnlyController c(hbm_, dram_, PagingConfig{});
  const auto r = c.access(dram_.capacity() + 64, AccessType::kRead, 0);
  EXPECT_EQ(r.phys_addr, 64u);
}

TEST_F(Fixture, StatsAccounting) {
  DramOnlyController c(hbm_, dram_, PagingConfig{});
  c.access(0, AccessType::kRead, 0);
  c.access(64, AccessType::kWrite, 1000);
  const auto& s = c.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.hbm_served, 0u);
  EXPECT_GT(s.total_latency, 0u);
}

TEST_F(Fixture, ResetStatsClears) {
  DramOnlyController c(hbm_, dram_, PagingConfig{});
  c.access(0, AccessType::kRead, 0);
  c.reset_stats();
  EXPECT_EQ(c.stats().requests, 0u);
  EXPECT_EQ(c.stats().total_latency, 0u);
}

TEST_F(Fixture, DramOnlyVisibleCapacityIsDramOnly) {
  PagingConfig paging;
  paging.visible_bytes = 99 * GiB;  // should be overridden
  DramOnlyController c(hbm_, dram_, paging);
  EXPECT_EQ(c.paging().config().visible_bytes, dram_.capacity());
}

// Expose the protected helpers for the movement tests.
class MovableController : public HybridMemoryController {
 public:
  MovableController(mem::DramDevice& hbm, mem::DramDevice& dram)
      : HybridMemoryController("test", hbm, dram, PagingConfig{}) {}

  u64 metadata_sram_bytes() const override { return 0; }
  void serialize(snap::Archive& ar) override { serialize_base(ar); }

  Tick do_move(Addr src, Addr dst, u64 bytes, Tick now) {
    return move_data(dram(), src, hbm(), dst, bytes, now,
                     mem::TrafficClass::kMigration);
  }
  Tick do_swap(Addr a, Addr b, u64 bytes, Tick now) {
    return swap_data(hbm(), a, dram(), b, bytes, now,
                     mem::TrafficClass::kMigration);
  }

 protected:
  HmmResult service(Addr, AccessType, Tick now) override {
    HmmResult r;
    r.complete = now;
    return r;
  }
};

TEST_F(Fixture, MoveDataGeneratesTrafficBothSides) {
  MovableController c(hbm_, dram_);
  const Tick done = c.do_move(0, 0, 64 * KiB, 1000);
  EXPECT_GT(done, 1000u);
  const int mig = static_cast<int>(mem::TrafficClass::kMigration);
  EXPECT_EQ(dram_.stats().read_bytes[mig], 64 * KiB);
  EXPECT_EQ(hbm_.stats().write_bytes[mig], 64 * KiB);
}

TEST_F(Fixture, MoveHookObservesCopies) {
  MovableController c(hbm_, dram_);
  std::vector<MoveEvent> events;
  c.set_movement_hook([&](const MoveEvent& e) { events.push_back(e); });
  c.do_move(4096, 8192, 2048, 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].src_hbm);
  EXPECT_TRUE(events[0].dst_hbm);
  EXPECT_EQ(events[0].src_addr, 4096u);
  EXPECT_EQ(events[0].dst_addr, 8192u);
  EXPECT_EQ(events[0].bytes, 2048u);
  EXPECT_FALSE(events[0].is_swap);
}

TEST_F(Fixture, SwapDataReadsAndWritesBothSides) {
  MovableController c(hbm_, dram_);
  std::vector<MoveEvent> events;
  c.set_movement_hook([&](const MoveEvent& e) { events.push_back(e); });
  c.do_swap(0, 0, 2048, 0);
  const int mig = static_cast<int>(mem::TrafficClass::kMigration);
  EXPECT_EQ(hbm_.stats().read_bytes[mig], 2048u);
  EXPECT_EQ(hbm_.stats().write_bytes[mig], 2048u);
  EXPECT_EQ(dram_.stats().read_bytes[mig], 2048u);
  EXPECT_EQ(dram_.stats().write_bytes[mig], 2048u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].is_swap);
}

TEST_F(Fixture, FaultPenaltyDelaysService) {
  // DramOnlyController forces its own visible capacity, so use a test
  // controller that honors the given paging config.
  class TinyVisibleController : public HybridMemoryController {
   public:
    TinyVisibleController(mem::DramDevice& hbm, mem::DramDevice& dram,
                          const PagingConfig& paging)
        : HybridMemoryController("tiny", hbm, dram, paging) {}
    u64 metadata_sram_bytes() const override { return 0; }
    void serialize(snap::Archive& ar) override { serialize_base(ar); }

   protected:
    HmmResult service(Addr, AccessType, Tick now) override {
      HmmResult r;
      r.complete = now + ns_to_ticks(10);
      return r;
    }
  };

  PagingConfig paging;
  paging.visible_bytes = 2 * 4 * KiB;  // two OS pages
  paging.fault_penalty = ns_to_ticks(500);
  TinyVisibleController c(hbm_, dram_, paging);
  c.access(0 * 4 * KiB, AccessType::kRead, 0);
  c.access(1 * 4 * KiB, AccessType::kRead, 0);
  const auto r = c.access(2 * 4 * KiB, AccessType::kRead, 0);
  EXPECT_EQ(r.fault_penalty, ns_to_ticks(500));
  EXPECT_GT(r.complete, ns_to_ticks(500));
}

TEST(HmmStats, DerivedMetrics) {
  HmmStats s;
  EXPECT_DOUBLE_EQ(s.hbm_serve_rate(), 0.0);
  EXPECT_DOUBLE_EQ(s.overfetch_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(s.mal_fraction(), 0.0);
  s.requests = 10;
  s.hbm_served = 4;
  s.blocks_fetched = 100;
  s.fetched_blocks_used = 87;
  s.total_latency = 1000;
  s.total_metadata_latency = 150;
  EXPECT_DOUBLE_EQ(s.hbm_serve_rate(), 0.4);
  EXPECT_NEAR(s.overfetch_fraction(), 0.13, 1e-12);
  EXPECT_DOUBLE_EQ(s.mal_fraction(), 0.15);
}

}  // namespace
}  // namespace bb::hmm
