// Tests for the SILC-FM extension baseline (reference [7]).
#include <gtest/gtest.h>

#include "baselines/silcfm.h"
#include "common/bitvector.h"
#include "common/snapshot.h"
#include "common/zero_array.h"
#include "snapshot_testing.h"

namespace bb::baselines {
namespace {

class SilcFmFixture : public ::testing::Test {
 protected:
  SilcFmFixture()
      : hbm_([] {
          auto p = mem::DramTimingParams::hbm2_1gb();
          p.capacity_bytes = 64 * MiB;
          return p;
        }()),
        dram_([] {
          auto p = mem::DramTimingParams::ddr4_3200_10gb();
          p.capacity_bytes = 640 * MiB;
          return p;
        }()) {}

  mem::DramDevice hbm_;
  mem::DramDevice dram_;
};

TEST_F(SilcFmFixture, AllVisible) {
  SilcFmController c(hbm_, dram_);
  EXPECT_EQ(c.paging().config().visible_bytes,
            hbm_.capacity() + dram_.capacity());
}

TEST_F(SilcFmFixture, NativeBlockServedNear) {
  SilcFmController c(hbm_, dram_);
  // In-set block index m_ is the near-native block; its global block id is
  // m_ * sets_ + set (strided grouping).
  const u64 m = c.blocks_per_set() - 1;
  const Addr a = m * c.set_count() * 2 * KiB;  // set 0, block m
  EXPECT_TRUE(c.access(a, AccessType::kRead, 0).served_by_hbm);
}

TEST_F(SilcFmFixture, HotFarBlockPairsAndInterleavesSubblocks) {
  SilcFmController c(hbm_, dram_);
  // Hammer far block 0 of set 0 until it pairs; subsequent accesses to the
  // same subblock must serve from near memory.
  Tick now = 0;
  bool near_hit = false;
  for (int i = 0; i < 16 && !near_hit; ++i) {
    now += 100000;
    near_hit = c.access(0, AccessType::kRead, now).served_by_hbm;
  }
  EXPECT_TRUE(near_hit);
  EXPECT_GT(c.stats().swaps, 0u);
  // A different subblock of the paired block swaps in on first demand.
  now += 100000;
  const auto miss = c.access(128, AccessType::kRead, now);
  EXPECT_FALSE(miss.served_by_hbm);  // served far, then interleaved
  now += 100000;
  EXPECT_TRUE(c.access(128, AccessType::kRead, now).served_by_hbm);
}

TEST_F(SilcFmFixture, DisplacedNativeSubblockServedFar) {
  SilcFmController c(hbm_, dram_);
  Tick now = 0;
  // Pair far block 0 and interleave its subblock 0.
  for (int i = 0; i < 16; ++i) {
    now += 100000;
    c.access(0, AccessType::kRead, now);
  }
  // The native block's subblock 0 was swapped out to the far frame.
  const u64 m = c.blocks_per_set() - 1;
  const Addr native0 = m * c.set_count() * 2 * KiB;
  now += 100000;
  const auto r = c.access(native0, AccessType::kRead, now);
  EXPECT_FALSE(r.served_by_hbm);
  // An untouched native subblock is still near.
  now += 100000;
  EXPECT_TRUE(
      c.access(native0 + 1024, AccessType::kRead, now).served_by_hbm);
}

TEST_F(SilcFmFixture, RepairingRestoresPreviousPair) {
  SilcFmController c(hbm_, dram_);
  Tick now = 0;
  for (int i = 0; i < 16; ++i) {  // pair block 0
    now += 100000;
    c.access(0, AccessType::kRead, now);
  }
  const u64 swaps_before = c.stats().swaps;
  // Hammer far block 1 of set 0 (global id = sets_) until it takes over.
  const Addr b1 = static_cast<Addr>(c.set_count()) * 2 * KiB;
  for (int i = 0; i < 64; ++i) {
    now += 100000;
    c.access(b1, AccessType::kRead, now);
  }
  EXPECT_GT(c.stats().mode_switches, 1u);  // re-pairing happened
  EXPECT_GT(c.stats().swaps, swaps_before);
  // Block 0's subblock 0 is back in its own frame: far access again.
  now += 100000;
  EXPECT_FALSE(c.access(0, AccessType::kRead, now).served_by_hbm);
}

TEST_F(SilcFmFixture, MetadataExceedsSram) {
  SilcFmController c(hbm_, dram_);
  EXPECT_GT(c.metadata_sram_bytes(), 512 * KiB);
}

TEST_F(SilcFmFixture, RestoreOfInconsistentSetFailsClosed) {
  // CRC-valid images that each break one set of a fresh controller: the
  // restore's invariant check rejects both.
  SilcFmController c(hbm_, dram_);
  EXPECT_TRUE(c.check_invariants());
  const std::string payload = snap::testing::payload_of(c);
  const u32 subblocks = 2 * KiB / 64;
  {
    SCOPED_TRACE("present bits in a set with no paired block");
    BitMatrix clean(c.set_count(), subblocks);
    BitMatrix stray(c.set_count(), subblocks);
    stray.set(5, 3);
    const std::string bad = snap::testing::replace_once(
        payload, snap::testing::payload_of(clean),
        snap::testing::payload_of(stray));
    SilcFmController fresh(hbm_, dram_);
    EXPECT_THROW(snap::testing::restore(bad, fresh), snap::SnapshotError);
  }
  {
    SCOPED_TRACE("paired block out of range");
    ZeroArray<u32> none(c.set_count());  // every set unpaired
    ZeroArray<u32> out_of_range(c.set_count());
    // Stored as block ^ ~0: pair set 5 with in-set block m_, the
    // near-native block, which never pairs.
    out_of_range[5] = (c.blocks_per_set() - 1) ^ ~u32{0};
    const std::string bad =
        snap::testing::replace_once(payload, snap::testing::table_bytes(none),
                                    snap::testing::table_bytes(out_of_range));
    SilcFmController fresh(hbm_, dram_);
    EXPECT_THROW(snap::testing::restore(bad, fresh), snap::SnapshotError);
  }
  SilcFmController same(hbm_, dram_);
  EXPECT_NO_THROW(snap::testing::restore(payload, same));
}

}  // namespace
}  // namespace bb::baselines
