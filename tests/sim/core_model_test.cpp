#include "sim/core_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "hmm/controller.h"
#include "snapshot_testing.h"

namespace bb::sim {
namespace {

/// Memory with a constant latency: isolates the core timing model.
class FixedLatencyController : public hmm::HybridMemoryController {
 public:
  FixedLatencyController(mem::DramDevice& hbm, mem::DramDevice& dram,
                         Tick latency)
      : HybridMemoryController("fixed", hbm, dram,
                               hmm::PagingConfig{.enabled = false}),
        latency_(latency) {}

  u64 metadata_sram_bytes() const override { return 0; }
  void serialize(snap::Archive& ar) override { serialize_base(ar); }

 protected:
  hmm::HmmResult service(Addr, AccessType, Tick now) override {
    hmm::HmmResult r;
    r.complete = now + latency_;
    return r;
  }

 private:
  Tick latency_;
};

/// One core replaying one generator, no warmup.
CoreResult run_one(CoreModel& core, trace::TraceGenerator& gen,
                   u64 instructions, hmm::HybridMemoryController& mem) {
  return core.run_sources({&gen}, {0}, instructions, mem);
}

/// One freshly seeded generator per lane.
CoreResult run_lanes(CoreModel& core, const std::vector<CoreLane>& lanes,
                     u64 instructions, hmm::HybridMemoryController& mem,
                     u64 warmup_instructions = 0) {
  std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
  std::vector<trace::TraceSource*> sources;
  std::vector<Addr> bases;
  for (const CoreLane& lane : lanes) {
    gens.push_back(
        std::make_unique<trace::TraceGenerator>(lane.profile, lane.seed));
    sources.push_back(gens.back().get());
    bases.push_back(lane.base);
  }
  return core.run_sources(sources, bases, instructions, mem,
                          warmup_instructions);
}

/// Every core of `core` on one profile, as a single-profile System run.
CoreResult run_profile(CoreModel& core, const char* workload, u64 seed,
                       u64 instructions, hmm::HybridMemoryController& mem,
                       u64 warmup_instructions = 0) {
  return run_lanes(core,
                   CoreModel::homogeneous_lanes(
                       trace::WorkloadProfile::by_name(workload), seed,
                       core.params().cores),
                   instructions, mem, warmup_instructions);
}

class CoreModelTest : public ::testing::Test {
 protected:
  CoreModelTest()
      : hbm_(mem::DramTimingParams::hbm2_1gb()),
        dram_(mem::DramTimingParams::ddr4_3200_10gb()) {}

  mem::DramDevice hbm_;
  mem::DramDevice dram_;
};

TEST_F(CoreModelTest, ZeroLatencyMemoryGivesBaseIpc) {
  CoreParams p;
  p.cores = 1;
  p.hierarchy_latency = 0;
  CoreModel core(p);
  FixedLatencyController mem(hbm_, dram_, 0);
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("mcf"), 1);
  const auto r = run_one(core, gen, 1'000'000, mem);
  // IPC approaches 1/base_cpi = 4.
  EXPECT_NEAR(r.ipc(p.freq_ghz), 1.0 / p.base_cpi, 0.2);
}

TEST_F(CoreModelTest, SlowerMemoryLowersIpc) {
  CoreParams p;
  p.cores = 1;
  CoreModel core(p);
  FixedLatencyController fast(hbm_, dram_, ns_to_ticks(20));
  FixedLatencyController slow(hbm_, dram_, ns_to_ticks(200));
  trace::TraceGenerator g1(trace::WorkloadProfile::by_name("mcf"), 1);
  trace::TraceGenerator g2(trace::WorkloadProfile::by_name("mcf"), 1);
  const auto rf = run_one(core, g1, 500'000, fast);
  const auto rs = run_one(core, g2, 500'000, slow);
  EXPECT_GT(rf.ipc(p.freq_ghz), rs.ipc(p.freq_ghz) * 1.5);
}

TEST_F(CoreModelTest, IsolatedMissExposesFullLatency) {
  // With MPKI ~0.1 (gaps of ~10000 instructions > ROB window), each miss
  // must stall the core for its full memory latency.
  CoreParams p;
  p.cores = 1;
  p.hierarchy_latency = 0;
  CoreModel core(p);
  const Tick lat = ns_to_ticks(1000);
  FixedLatencyController mem(hbm_, dram_, lat);
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("leela"), 1);
  const auto r = run_one(core, gen, 2'000'000, mem);
  // Elapsed >= compute time + misses * latency (almost no overlap).
  const Tick compute = static_cast<Tick>(2'000'000 * p.base_cpi /
                                         p.freq_ghz * 1000);
  EXPECT_GT(r.elapsed, compute + r.misses * lat * 9 / 10);
}

TEST_F(CoreModelTest, BurstyMissesOverlapUpToMlp) {
  // Dense misses (every instruction... high MPKI): with MLP 8 the stall
  // per miss is ~latency/8 once the pipeline fills.
  CoreParams p;
  p.cores = 1;
  p.hierarchy_latency = 0;
  p.rob_window = 10000;
  p.mlp = 8;
  CoreModel core(p);
  const Tick lat = ns_to_ticks(800);
  FixedLatencyController mem(hbm_, dram_, lat);
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("roms"), 1);
  const auto r = run_one(core, gen, 1'000'000, mem);
  // With overlap, elapsed must be far below misses * latency.
  EXPECT_LT(r.elapsed, r.misses * lat / 4);
}

TEST_F(CoreModelTest, MultiCoreAggregatesInstructions) {
  CoreParams p;
  p.cores = 4;
  CoreModel core(p);
  FixedLatencyController mem(hbm_, dram_, ns_to_ticks(50));
  const auto r = run_profile(core, "mcf", 7, 1'000'000, mem);
  EXPECT_GE(r.instructions, 1'000'000u);
  EXPECT_GT(r.misses, 0u);
  // Aggregate IPC of 4 cores can exceed a single core's ceiling.
  EXPECT_GT(r.ipc(p.freq_ghz), 1.0 / p.base_cpi);
}

TEST_F(CoreModelTest, WarmupResetsMeasurement) {
  CoreParams p;
  p.cores = 2;
  CoreModel core(p);
  FixedLatencyController mem(hbm_, dram_, ns_to_ticks(50));
  const auto r = run_profile(core, "mcf", 7, 500'000, mem,
                             /*warmup_instructions=*/500'000);
  // Measured window covers ~500k instructions, not 1M.
  EXPECT_LT(r.instructions, 600'000u);
  // Stats were reset at the warmup boundary.
  EXPECT_EQ(mem.stats().requests, r.misses);
}

TEST_F(CoreModelTest, IpcIsAggregateInstructionsOverElapsedCycles) {
  // Pins the documented definition: aggregate IPC = total instructions
  // across all cores / elapsed cycles of the slowest core.
  CoreParams p;
  p.cores = 2;
  CoreModel core(p);
  FixedLatencyController mem(hbm_, dram_, ns_to_ticks(50));
  const auto r = run_profile(core, "mcf", 7, 1'000'000, mem);
  ASSERT_GT(r.elapsed, 0u);
  const double cycles = ticks_to_s(r.elapsed) * p.freq_ghz * 1e9;
  EXPECT_DOUBLE_EQ(r.ipc(p.freq_ghz),
                   static_cast<double>(r.instructions) / cycles);

  // The per-core breakdown partitions the totals; the slowest core's
  // finish time is the aggregate elapsed.
  ASSERT_EQ(r.per_core.size(), 2u);
  u64 inst = 0, misses = 0;
  Tick slowest = 0;
  for (const auto& c : r.per_core) {
    inst += c.instructions;
    misses += c.misses;
    slowest = std::max(slowest, c.elapsed);
  }
  EXPECT_EQ(inst, r.instructions);
  EXPECT_EQ(misses, r.misses);
  EXPECT_EQ(slowest, r.elapsed);
}

TEST_F(CoreModelTest, HeterogeneousLanesKeepPerCoreCharacter) {
  CoreParams p;
  p.cores = 2;
  CoreModel core(p);
  FixedLatencyController mem(hbm_, dram_, ns_to_ticks(50));
  const std::vector<CoreLane> lanes = {
      {trace::WorkloadProfile::by_name("mcf"), 1, 0},
      {trace::WorkloadProfile::by_name("leela"), 2, 8 * GiB},
  };
  const auto r = run_lanes(core, lanes, 1'000'000, mem);
  ASSERT_EQ(r.per_core.size(), 2u);
  // mcf (MPKI 16.1) must miss orders of magnitude more often than leela
  // (MPKI 0.1) — the lanes really run different profiles.
  EXPECT_GT(r.per_core[0].misses, r.per_core[1].misses * 10);
  EXPECT_GT(r.per_core[1].instructions, 0u);
}

TEST_F(CoreModelTest, DeterministicAcrossRuns) {
  CoreParams p;
  CoreModel core(p);
  FixedLatencyController m1(hbm_, dram_, ns_to_ticks(80));
  const auto r1 = run_profile(core, "wrf", 3, 300'000, m1);
  FixedLatencyController m2(hbm_, dram_, ns_to_ticks(80));
  const auto r2 = run_profile(core, "wrf", 3, 300'000, m2);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.misses, r2.misses);
  EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST(RunLoopState, RestoreRejectsCountsPastPayload) {
  // An inflated core count, then an inflated ROB depth, each fail closed
  // before a container is sized from them.
  {
    snap::Writer w;
    w.put_u64(u64{1} << 60);  // cores
    RunLoopState ls;
    EXPECT_THROW(snap::testing::restore(w.payload(), ls), snap::SnapshotError);
    EXPECT_TRUE(ls.cores.empty());
  }
  {
    snap::Writer w;
    w.put_u64(1);  // cores
    for (int i = 0; i < 4; ++i) w.put_u64(0);  // now, inst, misses, reset
    w.put_u64(u64{1} << 60);  // ROB depth
    RunLoopState ls;
    EXPECT_THROW(snap::testing::restore(w.payload(), ls), snap::SnapshotError);
  }
}

}  // namespace
}  // namespace bb::sim
