#include "sim/system.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace bb::sim {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  // Scaled-down devices keep the end-to-end tests quick.
  cfg.hbm.capacity_bytes = 64 * MiB;
  cfg.dram.capacity_bytes = 640 * MiB;
  cfg.core.cores = 2;
  cfg.warmup_ratio = 0.5;
  return cfg;
}

TEST(System, RunProducesSaneMetrics) {
  System sys(fast_config());
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  const auto r = sys.run("Bumblebee", w, 2'000'000);
  EXPECT_EQ(r.design, "Bumblebee");
  EXPECT_EQ(r.workload, "mcf");
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.misses, 0u);
  EXPECT_GT(r.hbm_bytes + r.dram_bytes, 0u);
  EXPECT_GT(r.energy_mj, 0.0);
  EXPECT_GE(r.hbm_serve_rate, 0.0);
  EXPECT_LE(r.hbm_serve_rate, 1.0);
  EXPECT_GT(r.metadata_sram_bytes, 0u);
}

TEST(System, DramOnlyHasNoHbmTraffic) {
  System sys(fast_config());
  const auto r =
      sys.run("DRAM-only", trace::WorkloadProfile::by_name("mcf"), 1'000'000);
  EXPECT_EQ(r.hbm_bytes, 0u);
  EXPECT_GT(r.dram_bytes, 0u);
  EXPECT_DOUBLE_EQ(r.hbm_serve_rate, 0.0);
}

TEST(System, DeterministicResults) {
  System sys(fast_config());
  const auto& w = trace::WorkloadProfile::by_name("xalancbmk");
  const auto a = sys.run("Bumblebee", w, 1'000'000);
  const auto b = sys.run("Bumblebee", w, 1'000'000);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

TEST(System, BumblebeeBeatsDramOnlyOnHotWorkload) {
  // Full-size devices: mcf's 0.2 GB footprint fits entirely in the 1 GB
  // HBM, the paper's clearest-win scenario.
  System sys;
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  const auto base = sys.run("DRAM-only", w, 10'000'000);
  const auto bb = sys.run("Bumblebee", w, 10'000'000);
  EXPECT_GT(bb.hbm_serve_rate, 0.5);
  EXPECT_GT(bb.ipc, base.ipc);
}

TEST(System, RunBumblebeeCustomConfig) {
  System sys(fast_config());
  bumblebee::BumblebeeConfig cfg;
  cfg.block_bytes = 4 * KiB;
  cfg.page_bytes = 128 * KiB;
  const auto r = sys.run_bumblebee(
      cfg, trace::WorkloadProfile::by_name("mcf"), 1'000'000);
  EXPECT_GT(r.ipc, 0.0);
}

TEST(System, TrafficClassSplitSumsToTotal) {
  System sys(fast_config());
  const auto r =
      sys.run("Bumblebee", trace::WorkloadProfile::by_name("mcf"), 1'000'000);
  u64 hbm_sum = 0, dram_sum = 0;
  for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
    hbm_sum += r.hbm_class_bytes[c];
    dram_sum += r.dram_class_bytes[c];
  }
  EXPECT_EQ(hbm_sum, r.hbm_bytes);
  EXPECT_EQ(dram_sum, r.dram_bytes);
}

TEST(GroupByMpki, ComputesPerGroupGeomeans) {
  std::vector<RunResult> base, res;
  for (const char* name : {"roms", "mcf", "leela"}) {
    RunResult b;
    b.workload = name;
    b.ipc = 1.0;
    base.push_back(b);
    RunResult r;
    r.workload = name;
    r.ipc = 2.0;
    res.push_back(r);
  }
  const auto g = group_by_mpki(res, base, metric_ipc);
  EXPECT_DOUBLE_EQ(g.high, 2.0);    // roms
  EXPECT_DOUBLE_EQ(g.medium, 2.0);  // mcf
  EXPECT_DOUBLE_EQ(g.low, 2.0);     // leela
  EXPECT_DOUBLE_EQ(g.all, 2.0);
}

TEST(GroupByMpki, MissingBaselineRowSkipped) {
  std::vector<RunResult> base, res;
  RunResult b;
  b.workload = "mcf";
  b.ipc = 1.0;
  base.push_back(b);
  RunResult r1;
  r1.workload = "mcf";
  r1.ipc = 3.0;
  RunResult r2;
  r2.workload = "roms";  // no baseline row
  r2.ipc = 10.0;
  res = {r1, r2};
  const auto g = group_by_mpki(res, base, metric_ipc);
  EXPECT_DOUBLE_EQ(g.all, 3.0);
  EXPECT_DOUBLE_EQ(g.high, 0.0);
}

TEST(DefaultInstructions, ScalesWithMpki) {
  const auto& roms = trace::WorkloadProfile::by_name("roms");  // high MPKI
  const auto& xz = trace::WorkloadProfile::by_name("xz");      // low MPKI
  EXPECT_LT(default_instructions_for(roms), default_instructions_for(xz));
  // Bounds respected.
  EXPECT_GE(default_instructions_for(roms), 20'000'000u);
  EXPECT_LE(default_instructions_for(xz), 400'000'000u);
}

TEST(DefaultInstructions, IgnoresEnvScale) {
  // The budget depends only on the arguments: the retired BB_SIM_SCALE
  // environment knob no longer shortens it.
  const auto& w = trace::WorkloadProfile::by_name("roms");
  ::unsetenv("BB_SIM_SCALE");
  const u64 unset = default_instructions_for(w, 2'400, 1'000'000, 8'000'000);
  EXPECT_EQ(default_instructions_for(w), 20'000'000u);
  ::setenv("BB_SIM_SCALE", "10", 1);
  EXPECT_EQ(default_instructions_for(w, 2'400, 1'000'000, 8'000'000), unset);
  EXPECT_EQ(default_instructions_for(w), 20'000'000u);
  ::unsetenv("BB_SIM_SCALE");
}

}  // namespace
}  // namespace bb::sim
