// A multi-beat access must time exactly like its 64 B beats issued one by
// one at the same tick: the device decodes once per granule and steps the
// address across the capacity wrap, and neither may change a beat's
// channel, bank, row or timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mem/dram_device.h"

namespace bb::mem {
namespace {

DramTimingParams geometry(const std::string& name) {
  if (name == "hbm2") return DramTimingParams::hbm2_1gb();
  if (name == "ddr4") return DramTimingParams::ddr4_3200_10gb();
  DramTimingParams p = DramTimingParams::hbm2_1gb();
  p.name = name;
  if (name == "alias6") {
    // Non-power-of-two bank count (see AliasedRowsCountNoPhantomHits).
    p.channels = 1;
    p.banks_per_channel = 6;
    p.capacity_bytes = 1 * MiB;
  } else {  // "row_lt_interleave": granule set by the row, not interleave
    p.interleave_bytes = 4 * KiB;
    p.row_bytes = 1 * KiB;
  }
  return p;
}

struct Span {
  Addr addr;
  u64 bytes;
};

class MultiBeatTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MultiBeatTest, OneAccessEqualsItsBeats) {
  const DramTimingParams p = geometry(GetParam());
  DramDevice whole(p);
  DramDevice beats(p);
  const u64 cap = p.capacity_bytes;
  const u64 beat = p.burst_bytes();
  ASSERT_EQ(beat, 64u);

  // 4 KiB, 2 KiB, 512 B and an unaligned 192 B (four beats), at aligned,
  // unaligned and capacity-wrapping starts.
  std::vector<Span> spans;
  for (const Addr base : {Addr{0}, Addr{12 * KiB + 300}, Addr{cap - 1000},
                          Addr{cap / 2 + 4040}}) {
    spans.push_back({base, 4 * KiB});
    spans.push_back({base + 5 * KiB, 2 * KiB});
    spans.push_back({base + 9 * KiB + 448, 512});
    spans.push_back({base + 40, 192});
    spans.push_back({base, 4 * KiB});  // revisit: open-row hits
  }

  Tick now = 1000;
  int i = 0;
  for (const Span& s : spans) {
    const AccessType type = (i % 3 == 2) ? AccessType::kWrite
                                         : AccessType::kRead;
    const AccessResult a = whole.access(s.addr, s.bytes, type, now);
    Tick last_complete = 0;
    const Addr first = s.addr & ~(beat - 1);
    const Addr last = (s.addr + s.bytes - 1) & ~(beat - 1);
    for (Addr b = first; b <= last; b += beat) {
      last_complete = std::max(
          last_complete, beats.access(b, beat, type, now).complete);
    }
    ASSERT_EQ(a.complete, last_complete) << "span " << i;
    // Mostly back-to-back, with idle gaps past tREFI so refresh windows
    // land between and inside the spans.
    now += (i % 4 == 3) ? ns_to_ticks(p.trefi_ns + 700) : ns_to_ticks(37);
    ++i;
  }

  const DramStats& ws = whole.stats();
  const DramStats& bs = beats.stats();
  EXPECT_EQ(ws.beats, bs.beats);
  EXPECT_EQ(ws.row_hits, bs.row_hits);
  EXPECT_EQ(ws.row_misses, bs.row_misses);
  EXPECT_EQ(ws.row_empty, bs.row_empty);
  EXPECT_EQ(ws.refreshes, bs.refreshes);
  EXPECT_EQ(whole.energy().act_count(), beats.energy().act_count());
  EXPECT_EQ(whole.energy().read_burst_count(),
            beats.energy().read_burst_count());
  EXPECT_EQ(whole.energy().write_burst_count(),
            beats.energy().write_burst_count());
  EXPECT_GT(ws.refreshes, 0u);
  EXPECT_GT(ws.row_hits, 0u);
  EXPECT_GT(ws.row_misses + ws.row_empty, 0u);
}

/// Issues [addr, addr + bytes) on `beats` one 64 B beat at a time, all at
/// `now`; returns the last completion.
Tick issue_beats(DramDevice& beats, Addr addr, u64 bytes, AccessType type,
                 Tick now) {
  const u64 beat = beats.params().burst_bytes();
  Tick last_complete = 0;
  for (Addr b = addr & ~(beat - 1); b < addr + bytes; b += beat) {
    last_complete =
        std::max(last_complete, beats.access(b, beat, type, now).complete);
  }
  return last_complete;
}

void expect_same_stats(const DramDevice& whole, const DramDevice& beats) {
  const DramStats& ws = whole.stats();
  const DramStats& bs = beats.stats();
  EXPECT_EQ(ws.beats, bs.beats);
  EXPECT_EQ(ws.row_hits, bs.row_hits);
  EXPECT_EQ(ws.row_misses, bs.row_misses);
  EXPECT_EQ(ws.row_empty, bs.row_empty);
  EXPECT_EQ(ws.refreshes, bs.refreshes);
  EXPECT_EQ(whole.energy().read_burst_count(),
            beats.energy().read_burst_count());
  EXPECT_EQ(whole.energy().write_burst_count(),
            beats.energy().write_burst_count());
}

TEST_P(MultiBeatTest, RefreshInsideARowHitRunEqualsItsBeats) {
  // One granule read, started at every nanosecond of the window before the
  // first refresh is due, so that for some starts the refresh lands after
  // the granule's first beat and before its last.
  const DramTimingParams p = geometry(GetParam());
  const u64 granule = std::min(p.interleave_bytes, p.row_bytes);
  ASSERT_GE(granule / p.burst_bytes(), 3u);
  const Tick refi = ns_to_ticks(p.trefi_ns);
  const Addr base = 7 * granule;
  bool straddled = false;
  for (Tick now = refi - ns_to_ticks(200); now <= refi;
       now += ns_to_ticks(1)) {
    DramDevice whole(p);
    DramDevice beats(p);
    const AccessResult a =
        whole.access(base, granule, AccessType::kRead, now);
    const Tick head =
        beats.access(base, p.burst_bytes(), AccessType::kRead, now).complete;
    const bool refreshed_before_head = beats.stats().refreshes > 0;
    const Tick rest =
        issue_beats(beats, base + p.burst_bytes(),
                    granule - p.burst_bytes(), AccessType::kRead, now);
    ASSERT_EQ(a.complete, std::max(head, rest)) << "start tick " << now;
    expect_same_stats(whole, beats);
    straddled |= !refreshed_before_head && beats.stats().refreshes > 0;
  }
  EXPECT_TRUE(straddled) << "no start put the refresh inside the run";
}

TEST_P(MultiBeatTest, WriteRunThenReadEqualsItsBeats) {
  // Two-granule writes, each followed 5 ns later by a read of the same
  // span: the first read beat on each bank waits out tWTR after the last
  // write burst of the run.
  const DramTimingParams p = geometry(GetParam());
  const u64 granule = std::min(p.interleave_bytes, p.row_bytes);
  DramDevice whole(p);
  DramDevice beats(p);
  const Addr base = 3 * granule + 2 * p.burst_bytes();
  Tick now = 1000;
  for (int i = 0; i < 3; ++i) {
    const AccessResult w =
        whole.access(base, 2 * granule, AccessType::kWrite, now);
    ASSERT_EQ(w.complete, issue_beats(beats, base, 2 * granule,
                                      AccessType::kWrite, now));
    now += ns_to_ticks(5);
    const AccessResult r =
        whole.access(base, 2 * granule, AccessType::kRead, now);
    ASSERT_EQ(r.complete, issue_beats(beats, base, 2 * granule,
                                      AccessType::kRead, now));
    EXPECT_GE(r.complete, w.complete + p.cycles_to_ticks(p.tWTR));
    now += ns_to_ticks(5);
  }
  expect_same_stats(whole, beats);
  EXPECT_GT(whole.stats().row_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, MultiBeatTest,
                         ::testing::Values("hbm2", "ddr4", "alias6",
                                           "row_lt_interleave"));

}  // namespace
}  // namespace bb::mem
