#include "hmm/metadata.h"

#include <gtest/gtest.h>

#include "mem/dram_device.h"

namespace bb::hmm {
namespace {

TEST(Metadata, SramFixedLatency) {
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kSram;
  cfg.sram_latency = ns_to_ticks(2.0);
  MetadataModel m(cfg, nullptr);
  EXPECT_EQ(m.lookup(0, 0), ns_to_ticks(2.0));
  EXPECT_EQ(m.lookup(12345, 999), ns_to_ticks(2.0));
  EXPECT_EQ(m.stats().lookups, 2u);
  EXPECT_EQ(m.stats().sram_hits, 2u);
  EXPECT_EQ(m.stats().hbm_accesses, 0u);
}

TEST(Metadata, SramUpdateIsFree) {
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kSram;
  MetadataModel m(cfg, nullptr);
  m.update(1, 0);
  EXPECT_EQ(m.stats().hbm_accesses, 0u);
}

TEST(Metadata, HbmPlacementConsumesBandwidth) {
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kHbm;
  MetadataModel m(cfg, &hbm);
  const Tick lat = m.lookup(7, 1000);
  EXPECT_GT(lat, 0u);
  EXPECT_EQ(m.stats().hbm_accesses, 1u);
  const u64 meta_bytes =
      hbm.stats()
          .read_bytes[static_cast<int>(mem::TrafficClass::kMetadata)];
  EXPECT_GT(meta_bytes, 0u);
}

TEST(Metadata, HbmLookupBehindBusyBankIncludesTheWait) {
  // Metadata wait is on the critical path: a lookup that queues behind a
  // busy bank reports arrival to completion, not command issue to
  // completion.
  mem::DramTimingParams p = mem::DramTimingParams::hbm2_1gb();
  p.queue = mem::QueueConfig::fr_fcfs();
  mem::DramDevice hbm(p);
  mem::DramDevice twin(p);  // same traffic, accessed directly
  mem::DramDevice idle(p);
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kHbm;  // key 0 lives at HBM address 0
  MetadataModel m(cfg, &hbm);

  // Another row of the same bank keeps that bank busy past `now`.
  const auto home = hbm.decode_addr(0);
  Addr other = 0;
  for (Addr a = p.row_bytes; a < p.capacity_bytes && other == 0;
       a += p.row_bytes) {
    const auto d = hbm.decode_addr(a);
    if (d.channel == home.channel && d.bank == home.bank &&
        d.row != home.row) {
      other = a;
    }
  }
  ASSERT_NE(other, 0u);
  const Tick now = 1000;
  hbm.access(other, 2 * KiB, AccessType::kRead, now);
  twin.access(other, 2 * KiB, AccessType::kRead, now);

  const Tick got = m.lookup(0, now);
  const Tick complete = twin.access(0, cfg.entry_bytes, AccessType::kRead,
                                    now, mem::TrafficClass::kMetadata)
                            .complete;
  EXPECT_EQ(got, complete - now);
  // The same lookup on an idle bank is cheaper: the wait was counted.
  EXPECT_GT(got,
            idle.access(0, cfg.entry_bytes, AccessType::kRead, now).complete -
                now);
}

TEST(Metadata, HbmUpdateWritesToDevice) {
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kHbm;
  MetadataModel m(cfg, &hbm);
  m.update(3, 500);
  EXPECT_GT(
      hbm.stats()
          .write_bytes[static_cast<int>(mem::TrafficClass::kMetadata)],
      0u);
}

TEST(Metadata, CachedPlacementHitsAreCheap) {
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kSramCachedHbm;
  cfg.cache_bytes = 64 * KiB;
  cfg.sram_latency = ns_to_ticks(2.0);
  MetadataModel m(cfg, &hbm);
  const Tick miss = m.lookup(0, 0);
  const Tick hit = m.lookup(0, ns_to_ticks(1000));
  EXPECT_GT(miss, hit);
  EXPECT_EQ(hit, ns_to_ticks(2.0));
  EXPECT_EQ(m.stats().hbm_accesses, 1u);
}

TEST(Metadata, CachedPlacementThrashesOnLargeKeySpace) {
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kSramCachedHbm;
  cfg.cache_bytes = 4 * KiB;  // tiny cache
  cfg.entry_bytes = 64;       // one entry per cache line
  MetadataModel m(cfg, &hbm);
  // Key space 16x the cache: most lookups go to HBM.
  Tick now = 0;
  for (u64 k = 0; k < 1024; ++k) {
    now += ns_to_ticks(50);
    m.lookup(k, now);
  }
  EXPECT_GT(m.stats().hbm_accesses, 900u);
}

TEST(Metadata, MeanLatencyTracksTotal) {
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kSram;
  cfg.sram_latency = 100;
  MetadataModel m(cfg, nullptr);
  m.lookup(0, 0);
  m.lookup(1, 0);
  EXPECT_EQ(m.stats().mean_latency(), 100u);
  EXPECT_EQ(m.stats().total_latency, 200u);
}

TEST(Metadata, ResetStatsClearsCountersKeepsCache) {
  // Regression for the warmup-reset path: reset_stats() must clear the
  // lookup/latency counters (including the SRAM metadata cache's hit
  // stats) while the warmed cache contents survive (bb_analyze stats-reset
  // rule).
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  MetadataConfig cfg;
  cfg.placement = MetadataPlacement::kSramCachedHbm;
  MetadataModel m(cfg, &hbm);
  m.lookup(7, 1000);  // miss fills the SRAM metadata cache
  m.lookup(7, 2000);  // hit
  EXPECT_EQ(m.stats().lookups, 2u);
  EXPECT_EQ(m.stats().sram_hits, 1u);
  m.reset_stats();
  EXPECT_EQ(m.stats().lookups, 0u);
  EXPECT_EQ(m.stats().sram_hits, 0u);
  EXPECT_EQ(m.stats().hbm_accesses, 0u);
  EXPECT_EQ(m.stats().total_latency, 0u);
  // Cache contents survived the reset: the same key still hits in SRAM.
  m.lookup(7, 3000);
  EXPECT_EQ(m.stats().sram_hits, 1u);
  EXPECT_EQ(m.stats().hbm_accesses, 0u);
}

}  // namespace
}  // namespace bb::hmm
