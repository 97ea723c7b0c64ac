// Matrices read each workload's miss streams once, through shared-stream
// cursors: the rows must be byte-identical to cells that generate their
// own streams, each workload's chunks must be gone once its last cell is
// done, and snapshotting cells (private generators) must still resume to
// the same rows.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "sim/core_model.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "trace/shared_stream.h"

namespace bb::sim {
namespace {

constexpr u64 kInstructions = 400'000;

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 64 * MiB;
  cfg.dram.capacity_bytes = 640 * MiB;
  cfg.core.cores = 2;
  cfg.warmup_ratio = 0.5;
  return cfg;
}

std::vector<trace::WorkloadProfile> workloads() {
  return {trace::WorkloadProfile::by_name("mcf"),
          trace::WorkloadProfile::by_name("lbm")};
}

std::string matrix_csv(const SystemConfig& cfg,
                       const std::vector<std::string>& designs,
                       RunMatrixOptions opts) {
  opts.instructions = kInstructions;
  ExperimentRunner runner(cfg);
  runner.run_matrix(designs, workloads(), opts);
  std::ostringstream os;
  runner.write_csv(os);
  return os.str();
}

TEST(SharedStreamMatrix, RowsMatchCellsThatGenerateTheirOwnStreams) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee", "AC",
                                            "Banshee"};
  RunMatrixOptions shared;
  shared.jobs = 4;
  // The watchdog may restart a cell from record 0, so it keeps every
  // cell on a private generator; a deadline that never fires turns it on.
  RunMatrixOptions own = shared;
  own.cell_timeout_s = 1e9;
  const std::string want = matrix_csv(fast_config(), designs, own);
  EXPECT_EQ(matrix_csv(fast_config(), designs, shared), want);
  shared.jobs = 1;
  EXPECT_EQ(matrix_csv(fast_config(), designs, shared), want);
  EXPECT_EQ(trace::SharedStream::live_chunks(), 0u);
}

TEST(SharedStreamMatrix, EachWorkloadsChunksGoWithItsLastCell) {
  // One job runs the cells in matrix order, and a cell's cursors close
  // before it commits: after a workload's last design nothing of its
  // streams is left, and the next workload has not started yet.
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee", "AC"};
  std::vector<u64> live;
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.on_result = [&live](const RunResult&) {
    live.push_back(trace::SharedStream::live_chunks());
  };
  matrix_csv(fast_config(), designs, opts);
  ASSERT_EQ(live.size(), 6u);
  for (std::size_t w = 0; w < 2; ++w) {
    SCOPED_TRACE(w);
    // Held for the designs still to run, at least one chunk per lane.
    EXPECT_GE(live[3 * w], 2u);
    EXPECT_GE(live[3 * w + 1], 2u);
    EXPECT_EQ(live[3 * w + 2], 0u);
  }
}

TEST(SharedStreamMatrix, SnapshotCellsResumeToTheSharedStreamRows) {
  // Kill one cell mid-run (its snapshot stays behind), then run the whole
  // matrix with snapshots on: the killed cell resumes from its snapshot,
  // the rest run fresh, all on private generators, and every row equals
  // the shared-stream matrix's.
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  RunMatrixOptions opts;
  opts.jobs = 2;
  const std::string want = matrix_csv(fast_config(), designs, opts);

  SystemConfig cfg = fast_config();
  cfg.snapshot.dir =
      std::string(::testing::TempDir()) + "/shared_stream_matrix_snap";
  cfg.snapshot.interval_records = 256;
  cfg.snapshot.restore = true;
  std::filesystem::create_directories(cfg.snapshot.dir);
  const std::string snap =
      cfg.snapshot.dir + "/run__Bumblebee__mcf.bbsnap";
  System killed(cfg);
  int polls = 0;
  killed.set_interrupt([&polls] { return ++polls >= 3; });
  EXPECT_THROW(killed.run("Bumblebee", workloads()[0], kInstructions),
               RunInterrupted);
  ASSERT_TRUE(snap::file_exists(snap));

  EXPECT_EQ(matrix_csv(cfg, designs, opts), want);
  EXPECT_FALSE(snap::file_exists(snap));  // resumed and finished
}

}  // namespace
}  // namespace bb::sim
