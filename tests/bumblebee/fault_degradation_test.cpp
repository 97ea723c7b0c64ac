// Graceful degradation under uncorrectable errors: Bumblebee must retire
// faulty HBM frames (flushing dirty data through the normal eviction
// path), degrade sets past the retirement threshold, keep every PRT <->
// BLE <-> hot-table invariant intact, and complete the run serving from
// off-chip DRAM.
#include <gtest/gtest.h>

#include "bumblebee/controller.h"
#include "sim/system.h"

namespace bb::bumblebee {
namespace {

sim::SystemConfig small_cfg() {
  sim::SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  cfg.seed = 42;
  return cfg;
}

TEST(FaultDegradationTest, BumblebeeSurvivesDeadBanksAndRetiresFrames) {
  sim::SystemConfig cfg = small_cfg();
  // A quarter of all banks dead: plenty of UEs in both devices, so the
  // retirement and refetch machinery is exercised hard.
  cfg.fault = fault::FaultConfig::profile("dead-bank", 0.25, 1);

  sim::System system(cfg);
  const sim::RunResult r = system.run(
      "Bumblebee", trace::WorkloadProfile::by_name("mcf"), 300'000);

  // The run completed and the reliability counters surfaced.
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.ue_count, 0u);
  EXPECT_GT(r.due_retries, 0u);
  EXPECT_GT(r.due_unrecovered, 0u);
  EXPECT_GE(r.retired_frames, 1u);
  // retired_frames/degraded_sets mirror the controller's posture.
  auto* bb = dynamic_cast<BumblebeeController*>(system.last_controller());
  ASSERT_NE(bb, nullptr);
  EXPECT_EQ(r.retired_frames, bb->bb_stats().frame_retirements);
  EXPECT_EQ(r.degraded_sets, bb->bb_stats().sets_degraded);
  // Every retirement re-verified the set; the final state must also pass
  // the full structural sweep.
  EXPECT_TRUE(bb->check_invariants());
}

TEST(FaultDegradationTest, DegradedSetsDisableCaching) {
  sim::SystemConfig cfg = small_cfg();
  cfg.fault = fault::FaultConfig::profile("dead-bank", 0.5, 2);

  sim::System system(cfg);
  const sim::RunResult r = system.run(
      "Bumblebee", trace::WorkloadProfile::by_name("lbm"), 300'000);

  auto* bb = dynamic_cast<BumblebeeController*>(system.last_controller());
  ASSERT_NE(bb, nullptr);
  EXPECT_TRUE(bb->check_invariants());
  // With half the banks dead some set must have crossed the threshold.
  EXPECT_GT(r.degraded_sets, 0u);
  EXPECT_GE(r.retired_frames,
            r.degraded_sets * bb->config().degrade_after_retired_frames);
  const hmm::FaultPosture posture = bb->fault_posture();
  EXPECT_EQ(posture.retired_frames, r.retired_frames);
  EXPECT_EQ(posture.degraded_sets, r.degraded_sets);
}

TEST(FaultDegradationTest, CleanChbmDuesRefetchFromOffChipCopy) {
  sim::SystemConfig cfg = small_cfg();
  // Transient-heavy profile with a large DUE share: cHBM blocks hit DUEs
  // while their off-chip home stays mostly readable. Retries are disabled
  // because tick-keyed transients almost always clear on redraw — with the
  // default budget an unrecovered transient needs three consecutive DUE
  // draws (~(rate*due_fraction)^3), which this run would never see.
  // Refetches are rare (a DUE must land on a clean cHBM block), so the run
  // is long enough to expect several: 1.2M instructions drew at least two
  // for every fault seed from 1 to 10.
  cfg.fault = fault::FaultConfig::profile("transient", 0.01, 3);
  cfg.fault.due_fraction = 0.5;
  cfg.fault.max_due_retries = 0;

  sim::System system(cfg);
  const sim::RunResult r = system.run(
      "Bumblebee", trace::WorkloadProfile::by_name("mcf"), 1'200'000);

  auto* bb = dynamic_cast<BumblebeeController*>(system.last_controller());
  ASSERT_NE(bb, nullptr);
  EXPECT_TRUE(bb->check_invariants());
  EXPECT_GT(r.ue_count, 0u);
  // Recovery beats loss when a clean copy exists: some DUEs re-fetched.
  EXPECT_GT(bb->bb_stats().due_refetches, 0u);
}

TEST(FaultDegradationTest, FaultFreeRunHasZeroReliabilityCounters) {
  sim::System system(small_cfg());
  const sim::RunResult r = system.run(
      "Bumblebee", trace::WorkloadProfile::by_name("mcf"), 150'000);
  EXPECT_EQ(r.ce_count, 0u);
  EXPECT_EQ(r.ue_count, 0u);
  EXPECT_EQ(r.due_retries, 0u);
  EXPECT_EQ(r.due_data_loss, 0u);
  EXPECT_EQ(r.retired_rows, 0u);
  EXPECT_EQ(r.retired_frames, 0u);
  EXPECT_EQ(r.degraded_sets, 0u);
}

TEST(FaultDegradationTest, FaultPostureSurvivesStatReset) {
  // fault_posture() is derived from per-set structural state (retired
  // frames, degraded flags), not from the resettable event counters — so a
  // warmup-boundary reset_stats() must zero bstats_ without erasing the
  // degradation posture.
  sim::SystemConfig cfg = small_cfg();
  cfg.fault = fault::FaultConfig::profile("dead-bank", 0.25, 1);

  sim::System system(cfg);
  system.run("Bumblebee", trace::WorkloadProfile::by_name("mcf"), 300'000);
  auto* bb = dynamic_cast<BumblebeeController*>(system.last_controller());
  ASSERT_NE(bb, nullptr);
  const hmm::FaultPosture before = bb->fault_posture();
  ASSERT_GE(before.retired_frames, 1u);

  bb->reset_stats();
  EXPECT_EQ(bb->bb_stats().frame_retirements, 0u);
  EXPECT_EQ(bb->bb_stats().sets_degraded, 0u);
  const hmm::FaultPosture after = bb->fault_posture();
  EXPECT_EQ(after.retired_frames, before.retired_frames);
  EXPECT_EQ(after.degraded_sets, before.degraded_sets);
  EXPECT_TRUE(bb->check_invariants());
}

}  // namespace
}  // namespace bb::bumblebee
