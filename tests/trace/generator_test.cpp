#include "trace/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/snapshot.h"

namespace bb::trace {
namespace {

TEST(Generator, Deterministic) {
  const auto& w = WorkloadProfile::by_name("mcf");
  TraceGenerator a(w, 42), b(w, 42);
  for (int i = 0; i < 10000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.addr, rb.addr);
    ASSERT_EQ(ra.inst_gap, rb.inst_gap);
    ASSERT_EQ(ra.type, rb.type);
  }
}

TEST(Generator, SeedsProduceDifferentStreams) {
  const auto& w = WorkloadProfile::by_name("mcf");
  TraceGenerator a(w, 1), b(w, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next().addr == b.next().addr) ++same;
  }
  EXPECT_LT(same, 100);
}

TEST(Generator, AddressesAlignedAndBounded) {
  const auto& w = WorkloadProfile::by_name("wrf");
  TraceGenerator gen(w, 3);
  for (int i = 0; i < 50000; ++i) {
    const auto r = gen.next();
    ASSERT_EQ(r.addr % kLineBytes, 0u);
    ASSERT_LT(r.addr, w.footprint_bytes());
  }
}

TEST(Generator, HotRegionSizeTracksSpatialAxis) {
  // wrf (weak spatial) must have much smaller hot regions than mcf
  // (strong spatial) — the Figure 1 mechanism.
  TraceGenerator mcf(WorkloadProfile::by_name("mcf"), 1);
  TraceGenerator wrf(WorkloadProfile::by_name("wrf"), 1);
  EXPECT_GT(mcf.hot_region_bytes(), wrf.hot_region_bytes());
  EXPECT_GE(mcf.hot_region_bytes(), 32 * KiB);
  EXPECT_LE(wrf.hot_region_bytes(), 4 * KiB);
}

TEST(Generator, HotSetCapped) {
  // 10.6 GB footprint with default hot fraction would exceed the cap.
  TraceGenerator roms(WorkloadProfile::by_name("roms"), 1);
  EXPECT_LE(roms.hot_region_count() * roms.hot_region_bytes(),
            kMaxHotSetBytes);
}

// ---------------------------------------------------------- cursor state

std::string cursor_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A cursor stream in TraceGenerator::serialize's layout.
void write_cursor(const std::string& path, const std::array<u64, 4>& rng,
                  u64 scan, const std::vector<u32>& hot) {
  snap::Writer w;
  for (u64 word : rng) w.put_u64(word);
  w.put_u64(scan);
  w.put_u64(hot.size());
  for (u32 c : hot) w.put_u32(c);
  w.commit(path);
}

TEST(GeneratorCursor, LoadRejectsEachCorruptField) {
  const auto& w = WorkloadProfile::by_name("mcf");
  TraceGenerator probe(w, 1);
  const u64 footprint =
      std::max<u64>(w.footprint_bytes() & ~(kLineBytes - 1), 64 * KiB);
  const u64 blocks = probe.hot_region_bytes() / kLineBytes;
  const std::size_t regions = static_cast<std::size_t>(
      std::min<u64>(probe.hot_region_count(), u64{1} << 20));
  const std::array<u64, 4> rng = {1, 2, 3, 4};
  const std::vector<u32> hot(regions, static_cast<u32>(blocks - 1));

  struct Case {
    const char* what;
    u64 scan;
    std::vector<u32> hot;
  };
  std::vector<u32> hot_past = hot;
  hot_past.back() = static_cast<u32>(blocks);
  std::vector<u32> hot_wide = hot;
  hot_wide.front() = 0x10000;  // would truncate to 0 as a u16
  const Case cases[] = {
      {"scan cursor at the footprint", footprint, hot},
      {"scan cursor not 64 B-aligned", footprint - kLineBytes + 8, hot},
      {"hot cursor at blocks-per-region", 0, hot_past},
      {"hot cursor wider than u16", 0, hot_wide},
      {"hot cursor count", 0, std::vector<u32>(regions + 1, 0)},
  };

  // The valid neighbour of every case loads.
  const std::string ok_path = cursor_path("gen_cursor_ok.bbsnap");
  write_cursor(ok_path, rng, footprint - kLineBytes, hot);
  {
    TraceGenerator g(w, 1);
    snap::Reader r(ok_path);
    snap::Archive ar(r);
    EXPECT_NO_THROW(g.serialize(ar));
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string path = cursor_path("gen_cursor_bad.bbsnap");
    write_cursor(path, rng, c.scan, c.hot);
    TraceGenerator g(w, 1);
    snap::Reader r(path);
    snap::Archive ar(r);
    EXPECT_THROW(g.serialize(ar), snap::SnapshotError);
    // A rejected load leaves the generator where it was.
    TraceGenerator fresh(w, 1);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(g.next().addr, fresh.next().addr);
  }
}

class ProfileCalibrationTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileCalibrationTest, MpkiWithinTolerance) {
  const auto& w = WorkloadProfile::by_name(GetParam());
  TraceGenerator gen(w, 99);
  const auto recs = gen.take(100'000);
  const auto s = measure_stream(recs);
  const double gen_mpki = 1000.0 / s.mean_inst_gap;
  EXPECT_NEAR(gen_mpki / w.mpki, 1.0, 0.05) << w.name;
}

TEST_P(ProfileCalibrationTest, WriteFractionWithinTolerance) {
  const auto& w = WorkloadProfile::by_name(GetParam());
  TraceGenerator gen(w, 100);
  const auto recs = gen.take(100'000);
  const auto s = measure_stream(recs);
  EXPECT_NEAR(s.write_fraction, w.write_fraction, 0.02) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileCalibrationTest,
    ::testing::Values("roms", "lbm", "bwaves", "wrf", "xalancbmk", "mcf",
                      "cam4", "cactuBSSN", "fotonik3d", "x264", "nab",
                      "namd", "xz", "leela"));

TEST(Generator, LocalityAxesOrdering) {
  // Measured spatial locality (block use in 64 KB pages): mcf > wrf.
  // Measured temporal locality (top-1% page share): wrf > xz.
  auto measure = [](const char* name) {
    TraceGenerator gen(WorkloadProfile::by_name(name), 5);
    return measure_stream(gen.take(300'000));
  };
  const auto mcf = measure("mcf");
  const auto wrf = measure("wrf");
  const auto xz = measure("xz");
  EXPECT_GT(mcf.page64k_block_use, wrf.page64k_block_use);
  EXPECT_GT(wrf.top1pct_share, xz.top1pct_share);
}

TEST(Generator, TakeReturnsExactCount) {
  TraceGenerator gen(WorkloadProfile::by_name("leela"), 8);
  EXPECT_EQ(gen.take(1234).size(), 1234u);
}

TEST(MeasureStream, EmptyStream) {
  const auto s = measure_stream({});
  EXPECT_EQ(s.unique_pages_4k, 0u);
  EXPECT_DOUBLE_EQ(s.mean_inst_gap, 0.0);
}

TEST(MeasureStream, SingleRecord) {
  std::vector<TraceRecord> recs = {{10, 64, AccessType::kWrite}};
  const auto s = measure_stream(recs);
  EXPECT_DOUBLE_EQ(s.mean_inst_gap, 10.0);
  EXPECT_DOUBLE_EQ(s.write_fraction, 1.0);
  EXPECT_EQ(s.unique_pages_4k, 1u);
}

}  // namespace
}  // namespace bb::trace
