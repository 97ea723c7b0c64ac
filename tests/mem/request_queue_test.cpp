// Request-queue layer: FR-FCFS arbitration, write-drain hysteresis and
// MSHR read coalescing, alone and behind the DramDevice facade.
#include "mem/request_queue.h"

#include <gtest/gtest.h>

#include "mem/dram_device.h"
#include "snapshot_testing.h"

namespace bb::mem {
namespace {

DramTimingParams hbm_with(QueueConfig q) {
  DramTimingParams p = DramTimingParams::hbm2_1gb();
  p.queue = q;
  return p;
}

// --- FR-FCFS arbitration -------------------------------------------------

TEST(ChannelSchedulerTest, FrFcfsPrefersOldestRowHit) {
  const std::vector<ChannelScheduler::Candidate> c = {
      {false, 100}, {true, 200}, {true, 300}, {false, 50}};
  // Index 3 is oldest overall, but index 1 is the oldest open-row hit.
  EXPECT_EQ(ChannelScheduler::pick_fr_fcfs(c), 1u);
}

TEST(ChannelSchedulerTest, FrFcfsFallsBackToOldestMiss) {
  const std::vector<ChannelScheduler::Candidate> c = {
      {false, 100}, {false, 50}, {false, 75}};
  EXPECT_EQ(ChannelScheduler::pick_fr_fcfs(c), 1u);
}

// --- Write-drain hysteresis ----------------------------------------------

/// Minimal backend: one channel, no open rows, fixed 100-tick service.
class RecordingBackend : public QueueBackend {
 public:
  u32 channel_of(Addr) const override { return 0; }
  bool open_row_hit(Addr addr) const override {
    return addr == open_row_addr;
  }
  Issue issue(Addr addr, u64, AccessType, Tick now) override {
    issued.push_back(addr);
    return {now, now + 100};
  }
  std::vector<Addr> issued;
  Addr open_row_addr = kAddrInvalid;
};

QueueConfig small_queue() {
  QueueConfig q = QueueConfig::fr_fcfs();
  q.queue_depth = 8;
  q.write_high_watermark = 4;
  q.write_low_watermark = 2;
  return q;
}

TEST(ChannelSchedulerTest, WritesPostBelowHighWatermark) {
  ChannelScheduler sched(small_queue(), 1);
  RecordingBackend dev;
  for (int i = 0; i < 3; ++i) {
    const auto r = sched.on_write(static_cast<Addr>(i) * 64, 64,
                                  1000 + static_cast<Tick>(i), dev);
    // Posted semantics: accepted immediately, no device issue.
    EXPECT_EQ(r.complete, 1000 + static_cast<Tick>(i));
  }
  EXPECT_TRUE(dev.issued.empty());
  EXPECT_EQ(sched.write_queue_len(0), 3u);
  EXPECT_EQ(sched.stats().write_drain_count, 0u);
}

TEST(ChannelSchedulerTest, HighWatermarkDrainsToLowWatermark) {
  ChannelScheduler sched(small_queue(), 1);
  RecordingBackend dev;
  for (int i = 0; i < 4; ++i) {
    sched.on_write(static_cast<Addr>(i) * 64, 64,
                   1000 + static_cast<Tick>(i), dev);
  }
  // The 4th write crossed hi=4: one episode drained down to lo=2.
  EXPECT_EQ(sched.stats().write_drain_count, 1u);
  EXPECT_EQ(sched.write_queue_len(0), 2u);
  EXPECT_EQ(dev.issued.size(), 2u);
  EXPECT_EQ(sched.stats().writes_drained, 2u);
  // Oldest-first under all-miss FR-FCFS.
  EXPECT_EQ(dev.issued[0], 0u);
  EXPECT_EQ(dev.issued[1], 64u);
}

TEST(ChannelSchedulerTest, DrainPrefersOpenRowHitOverOlderWrite) {
  ChannelScheduler sched(small_queue(), 1);
  RecordingBackend dev;
  dev.open_row_addr = 2 * 64;  // the 3rd (youngest but row-hitting) write
  for (int i = 0; i < 4; ++i) {
    sched.on_write(static_cast<Addr>(i) * 64, 64,
                   1000 + static_cast<Tick>(i), dev);
  }
  ASSERT_EQ(dev.issued.size(), 2u);
  EXPECT_EQ(dev.issued[0], 2u * 64);  // row hit first...
  EXPECT_EQ(dev.issued[1], 0u);       // ...then the oldest miss
}

TEST(ChannelSchedulerTest, DrainAllFlushesWithoutCountingAnEpisode) {
  ChannelScheduler sched(small_queue(), 1);
  RecordingBackend dev;
  for (int i = 0; i < 3; ++i) {
    sched.on_write(static_cast<Addr>(i) * 64, 64, 1000, dev);
  }
  sched.drain_all(2000, dev);
  EXPECT_EQ(sched.write_queue_len(0), 0u);
  EXPECT_EQ(dev.issued.size(), 3u);
  EXPECT_EQ(sched.stats().write_drain_count, 0u);
  EXPECT_EQ(sched.stats().writes_drained, 3u);
}

// --- MSHR coalescing -----------------------------------------------------

TEST(ChannelSchedulerTest, SameBlockReadsCoalesceIntoOneFill) {
  DramDevice dev(hbm_with(QueueConfig::fr_fcfs()));
  const int n = 4;
  AccessResult first{};
  for (int i = 0; i < n; ++i) {
    const auto r = dev.access(0, 64, AccessType::kRead, 1000);
    if (i == 0) {
      first = r;
    } else {
      // Piggybacked reads ride the in-flight fill's completion.
      EXPECT_EQ(r.complete, first.complete);
    }
  }
  ASSERT_NE(dev.queue_stats(), nullptr);
  EXPECT_EQ(dev.queue_stats()->reads_issued, 1u);
  EXPECT_EQ(dev.queue_stats()->reads_coalesced, 3u);
  // One beat moved, one block of bytes accounted — no amplification.
  EXPECT_EQ(dev.stats().beats, 1u);
  EXPECT_EQ(dev.stats().read_bytes[0], 64u);
  // Every request still counts as an access.
  EXPECT_EQ(dev.stats().accesses, 4u);
}

TEST(ChannelSchedulerTest, DifferentBlocksDoNotCoalesce) {
  DramDevice dev(hbm_with(QueueConfig::fr_fcfs()));
  dev.access(0, 64, AccessType::kRead, 1000);
  dev.access(4096, 64, AccessType::kRead, 1000);
  EXPECT_EQ(dev.queue_stats()->reads_issued, 2u);
  EXPECT_EQ(dev.queue_stats()->reads_coalesced, 0u);
}

TEST(ChannelSchedulerTest, CompletedFillsDoNotServeLaterReads) {
  DramDevice dev(hbm_with(QueueConfig::fr_fcfs()));
  const auto r1 = dev.access(0, 64, AccessType::kRead, 1000);
  // Well after the fill landed: the MSHR has expired, a fresh fill issues.
  dev.access(0, 64, AccessType::kRead, r1.complete + ns_to_ticks(100));
  EXPECT_EQ(dev.queue_stats()->reads_issued, 2u);
  EXPECT_EQ(dev.queue_stats()->reads_coalesced, 0u);
}

// --- Device integration --------------------------------------------------

TEST(ChannelSchedulerTest, DrainQueuesFlushesPostedWrites) {
  QueueConfig q = QueueConfig::fr_fcfs();
  DramDevice dev(hbm_with(q));
  const u64 beats_before = dev.stats().beats;
  const auto r = dev.access(0, 64, AccessType::kWrite, 1000);
  // Posted: accepted instantly, no beat yet.
  EXPECT_EQ(r.complete, 1000u);
  EXPECT_EQ(dev.stats().beats, beats_before);
  EXPECT_EQ(dev.stats().write_bytes[0], 64u);  // bytes account at arrival
  dev.drain_queues(ns_to_ticks(10));
  EXPECT_EQ(dev.stats().beats, beats_before + 1);
}

TEST(ChannelSchedulerTest, ResetStatsClearsSchedulerCounters) {
  DramDevice dev(hbm_with(QueueConfig::fr_fcfs()));
  dev.access(0, 64, AccessType::kRead, 1000);
  dev.reset_stats();
  EXPECT_EQ(dev.queue_stats()->reads_issued, 0u);
  EXPECT_EQ(dev.queue_stats()->queue_length_samples, 0u);
}

// --- Snapshot ----------------------------------------------------------

TEST(ChannelSchedulerTest, RestoreRejectsQueueLengthsPastPayload) {
  // An inflated write-queue length, then an inflated MSHR count, each
  // fail closed before the channel's queue is sized from them.
  {
    snap::Writer w;
    w.put_u64(1);             // channels
    w.put_u64(u64{1} << 60);  // queued writes
    ChannelScheduler sched(small_queue(), 1);
    EXPECT_THROW(snap::testing::restore(w.payload(), sched),
                 snap::SnapshotError);
  }
  {
    snap::Writer w;
    w.put_u64(1);             // channels
    w.put_u64(0);             // queued writes
    w.put_u64(u64{1} << 60);  // MSHRs
    ChannelScheduler sched(small_queue(), 1);
    EXPECT_THROW(snap::testing::restore(w.payload(), sched),
                 snap::SnapshotError);
  }
}

}  // namespace
}  // namespace bb::mem
