#include "hmm/paging.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "common/trace_event.h"
#include "snapshot_testing.h"

namespace bb::hmm {
namespace {

PagingConfig tiny(u64 pages) {
  PagingConfig cfg;
  cfg.visible_bytes = pages * cfg.os_page_bytes;
  cfg.fault_penalty = ns_to_ticks(100);
  return cfg;
}

TEST(Paging, ColdFaultsAreFree) {
  PagingModel p(tiny(4));
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(p.touch(i * 4 * KiB), 0u);
  }
  EXPECT_EQ(p.stats().first_touches, 4u);
  EXPECT_EQ(p.stats().faults, 0u);
}

TEST(Paging, ResidentPagesDontFault) {
  PagingModel p(tiny(4));
  p.touch(0);
  p.touch(1);  // same 4 KiB page
  p.touch(4095);
  EXPECT_EQ(p.stats().first_touches, 1u);
  EXPECT_EQ(p.stats().faults, 0u);
}

TEST(Paging, CapacityFaultCharged) {
  PagingModel p(tiny(2));
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  const Tick penalty = p.touch(2 * 4 * KiB);
  EXPECT_EQ(penalty, ns_to_ticks(100));
  EXPECT_EQ(p.stats().faults, 1u);
}

TEST(Paging, SequentialOverCapacityThrashes) {
  // Cycling 3 pages through a 2-page residency faults on every touch of a
  // non-resident page (the classic clock/LRU worst case).
  PagingModel p(tiny(2));
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  p.touch(2 * 4 * KiB);
  const u64 before = p.stats().faults;
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  p.touch(2 * 4 * KiB);
  EXPECT_EQ(p.stats().faults, before + 3);
}

TEST(Paging, ClockGivesSecondChanceToReferencedPages) {
  PagingModel p(tiny(3));
  const Addr A = 0, B = 4 * KiB, C = 8 * KiB, D = 12 * KiB, E = 16 * KiB;
  p.touch(A);
  p.touch(B);
  p.touch(C);
  p.touch(D);  // fault: reference bits cleared, one of A/B/C evicted
  p.touch(B);  // re-reference B
  p.touch(E);  // fault: B's reference bit protects it
  EXPECT_EQ(p.touch(B), 0u) << "recently referenced page must survive";
}

TEST(Paging, DisabledNeverFaults) {
  PagingConfig cfg;
  cfg.enabled = false;
  cfg.visible_bytes = 0;
  PagingModel p(cfg);
  for (u64 i = 0; i < 100; ++i) {
    EXPECT_EQ(p.touch(i * 4 * KiB), 0u);
  }
  EXPECT_EQ(p.stats().faults, 0u);
}

TEST(Paging, HighVisibilityAbsorbsLargeFootprint) {
  // A design with 11 GB visible should fault less than one with 10 GB on
  // an 10.5 GB working set.
  PagingConfig big = tiny(0);
  big.visible_bytes = 11 * GiB;
  PagingConfig small = tiny(0);
  small.visible_bytes = 10 * GiB;
  PagingModel pb(big), ps(small);
  // Touch 10.5 GiB worth of 4 KiB pages twice: the 11 GiB-visible design
  // absorbs the working set; the 10 GiB one faults on the second round.
  const u64 pages = (10 * GiB + 512 * MiB) / (4 * KiB);
  for (int round = 0; round < 2; ++round) {
    for (u64 i = 0; i < pages; ++i) {
      pb.touch(i * 4 * KiB);
      ps.touch(i * 4 * KiB);
    }
  }
  EXPECT_EQ(pb.stats().faults, 0u);
  EXPECT_GT(ps.stats().faults, 0u);
}

TEST(Paging, ResetStatsClearsCountersKeepsResidency) {
  // Regression for the warmup-reset path: reset_stats() must clear the
  // fault/first-touch counters without touching the resident set or the
  // clock hand (bb_analyze stats-reset rule).
  PagingModel p(tiny(2));
  p.touch(0 * 4 * KiB);
  p.touch(1 * 4 * KiB);
  p.touch(2 * 4 * KiB);  // capacity fault evicts one resident page
  EXPECT_EQ(p.stats().first_touches, 2u);
  EXPECT_EQ(p.stats().faults, 1u);
  p.reset_stats();
  EXPECT_EQ(p.stats().first_touches, 0u);
  EXPECT_EQ(p.stats().faults, 0u);
  // The resident set survived: re-touching the just-admitted page is free
  // and is neither a fault nor a first touch.
  EXPECT_EQ(p.touch(2 * 4 * KiB), 0u);
  EXPECT_EQ(p.stats().faults, 0u);
  EXPECT_EQ(p.stats().first_touches, 0u);
}

/// The textbook clock algorithm over a plain vector (linear search for
/// residency): the reference the hashed resident table must reproduce.
class ReferenceClock {
 public:
  explicit ReferenceClock(u64 capacity_pages) : capacity_(capacity_pages) {}

  /// Touches `page`; returns the evicted page, or kNone.
  u64 touch(u64 page) {
    const auto it = std::find(ring_.begin(), ring_.end(), page);
    if (it != ring_.end()) {
      referenced_[static_cast<std::size_t>(it - ring_.begin())] = true;
      return kNone;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(page);
      referenced_.push_back(true);
      return kNone;
    }
    for (;;) {
      if (hand_ >= ring_.size()) hand_ = 0;
      if (!referenced_[hand_]) break;
      referenced_[hand_] = false;
      ++hand_;
    }
    const u64 victim = ring_[hand_];
    ring_[hand_] = page;
    referenced_[hand_] = true;
    ++hand_;
    return victim;
  }

  static constexpr u64 kNone = ~u64{0};

 private:
  u64 capacity_;
  std::vector<u64> ring_;
  std::vector<bool> referenced_;
  std::size_t hand_ = 0;
};

/// Replays `touches` pages from `rng` through the model and the reference,
/// requiring the same penalty and the same victim on every touch.
void expect_matches_reference(PagingModel& model, ReferenceClock& ref,
                              MemoryTraceSink& sink, Rng& rng, u64 universe,
                              int touches) {
  for (int i = 0; i < touches; ++i) {
    // A hot quarter of the universe takes half the touches, so reference
    // bits matter and the victim order is not plain FIFO.
    const u64 page = rng.next_below(2) == 0 ? rng.next_below(universe / 4)
                                            : rng.next_below(universe);
    const std::size_t events_before = sink.events().size();
    const Tick penalty = model.touch(page * 4 * KiB);
    const u64 victim = ref.touch(page);
    if (victim == ReferenceClock::kNone) {
      ASSERT_EQ(penalty, 0u) << "touch " << i;
      ASSERT_EQ(sink.events().size(), events_before) << "touch " << i;
    } else {
      ASSERT_EQ(penalty, model.config().fault_penalty) << "touch " << i;
      ASSERT_EQ(sink.events().size(), events_before + 1) << "touch " << i;
      const auto& args = sink.events().back().args;
      const auto it =
          std::find_if(args.begin(), args.end(),
                       [](const TraceEvent::Arg& a) {
                         return a.key == "victim_page";
                       });
      ASSERT_NE(it, args.end());
      ASSERT_EQ(it->u, victim) << "touch " << i;
    }
  }
}

TEST(Paging, VictimOrderAndRestoreMatchReferenceClockAcrossTableGrowth) {
  // 3000 resident pages grow the page->slot table several times over its
  // initial size before capacity faults start.
  constexpr u64 kCapacity = 3000;
  constexpr u64 kUniverse = 5000;
  PagingModel model(tiny(kCapacity));
  MemoryTraceSink sink;
  model.set_trace_sink(&sink);
  ReferenceClock ref(kCapacity);
  Rng rng(7);
  expect_matches_reference(model, ref, sink, rng, kUniverse, 40000);
  ASSERT_GT(model.stats().faults, 1000u);
  ASSERT_EQ(model.stats().first_touches, kCapacity);

  // Save, restore into a fresh model (its table is rebuilt from the ring)
  // and continue: the restored model stays in step with the reference.
  const std::string path =
      std::string(::testing::TempDir()) + "/paging_clock.bbsnap";
  snap::Writer w;
  snap::Archive save(w);
  model.serialize(save);
  w.commit(path);
  PagingModel restored(tiny(kCapacity));
  snap::Reader r(path);
  snap::Archive load(r);
  restored.serialize(load);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.stats().faults, model.stats().faults);
  MemoryTraceSink restored_sink;
  restored.set_trace_sink(&restored_sink);
  expect_matches_reference(restored, ref, restored_sink, rng, kUniverse,
                           40000);
}

/// A paging stream in PagingModel::serialize's layout: zero fault
/// counters, the ring, every page referenced, hand 0.
std::string paging_payload(const std::vector<u64>& ring) {
  snap::Writer w;
  w.put_u64(0);  // faults
  w.put_u64(0);  // first touches
  w.put_u64(ring.size());
  for (u64 page : ring) w.put_u64(page);
  for (std::size_t i = 0; i < ring.size(); ++i) w.put_u8(1);
  w.put_u64(0);  // hand
  return w.payload();
}

TEST(PagingModel, RestoreRejectsOverlongRingAndDuplicatePages) {
  // The valid neighbour loads; a ring longer than the capacity, a page
  // listed twice and a count past the payload fail closed.
  {
    PagingModel p(tiny(4));
    EXPECT_NO_THROW(snap::testing::restore(paging_payload({1, 2, 3, 4}), p));
  }
  {
    PagingModel p(tiny(4));
    EXPECT_THROW(snap::testing::restore(paging_payload({1, 2, 3, 4, 5}), p),
                 snap::SnapshotError);
  }
  {
    PagingModel p(tiny(4));
    EXPECT_THROW(snap::testing::restore(paging_payload({1, 2, 1}), p),
                 snap::SnapshotError);
  }
  {
    snap::Writer w;
    w.put_u64(0);
    w.put_u64(0);
    w.put_u64(u64{1} << 60);  // ring length
    PagingModel p(tiny(u64{1} << 20));
    EXPECT_THROW(snap::testing::restore(w.payload(), p), snap::SnapshotError);
  }
}

}  // namespace
}  // namespace bb::hmm
