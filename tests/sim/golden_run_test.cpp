// Golden-run regression test.
//
// Runs a tiny fixed-seed (design x workload) matrix and pins an FNV-1a
// hash of the full write_csv + write_json output. Any change to simulation
// behavior — intended or not — flips the hash, so mechanical refactors
// (warning hardening, clang-tidy cleanups, lint-driven container changes)
// can be proven behavior-preserving by this test alone.
//
// If the hash changes because of an *intended* behavioral change, rerun
// the test: the failure message prints the new hash to pin. Update the
// constant in the same commit as the behavioral change and say why.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "sim/experiment.h"

namespace bb::sim {
namespace {

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms.
u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(GoldenRun, FixedSeedMatrixHashIsPinned) {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  cfg.seed = 42;

  RunMatrixOptions opts;
  opts.jobs = 1;
  // Fixed budget: keeps the run fast and independent of the
  // default_instructions_for heuristic.
  opts.instructions = 150'000;

  ExperimentRunner ex(cfg);
  ex.run_matrix({"DRAM-only", "Bumblebee", "Banshee"},
                {trace::WorkloadProfile::by_name("mcf"),
                 trace::WorkloadProfile::by_name("lbm")},
                opts);
  ASSERT_EQ(ex.results().size(), 6u);

  std::ostringstream csv, json;
  ex.write_csv(csv);
  ex.write_json(json);
  const u64 hash = fnv1a(csv.str() + json.str());

  // Re-pinned when the fixed DRAM timing became the only timing: no
  // phantom tRTW on a cold bank's first write, the full row index as the
  // open-row identity, and AccessResult::start always the arrival tick.
  // Every Fig 7 / Fig 8 cell that moved is listed in EXPERIMENTS.md,
  // "One DRAM timing model: Fig 7 / Fig 8 before and after".
  const u64 kGoldenHash = 0x6421c56a87e25d81ULL;
  EXPECT_EQ(hash, kGoldenHash)
      << "golden-run output changed; new hash: 0x" << std::hex << hash
      << "\nIf this change is intended, update kGoldenHash and justify the "
         "behavioral change in the commit.";
}


/// FNV-1a of the CSV + JSON output of `designs` x {mcf, lbm} on the
/// golden-run system with 128 MiB of HBM (Hybrid2 needs more than its
/// fixed 64 MiB cHBM slice) and 1280 MiB of DRAM, one core, no warmup,
/// seed 42, at a fixed per-cell instruction budget.
u64 matrix_hash(const std::vector<std::string>& designs, u64 instructions) {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 128 * MiB;
  cfg.dram.capacity_bytes = 1280 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  cfg.seed = 42;
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = instructions;
  ExperimentRunner ex(cfg);
  ex.run_matrix(designs,
                {trace::WorkloadProfile::by_name("mcf"),
                 trace::WorkloadProfile::by_name("lbm")},
                opts);
  EXPECT_EQ(ex.results().size(), designs.size() * 2);
  std::ostringstream csv, json;
  ex.write_csv(csv);
  ex.write_json(json);
  return fnv1a(csv.str() + json.str());
}

// Every design the factory builds, including the comparison-only PoM,
// MemPod and SILC-FM that neither the test above nor the benchmark's
// digest runs: a slip in any design's state layout flips this hash.
TEST(GoldenRun, EveryDesignHashIsPinned) {
  const u64 hash = matrix_hash(baselines::all_design_names(), 400'000);
  const u64 kEveryDesignHash = 0x6c6b0716ac6c2d0fULL;
  EXPECT_EQ(hash, kEveryDesignHash)
      << "every-design golden output changed; new hash: 0x" << std::hex
      << hash
      << "\nIf this change is intended, update kEveryDesignHash and "
         "justify the behavioral change in the commit.";
}

}  // namespace
}  // namespace bb::sim
