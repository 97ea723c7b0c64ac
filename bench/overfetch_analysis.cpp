// Section IV-B reproduction: over-fetching analysis.
//
// The percentage of data brought into HBM that is never used before
// leaving it. Paper: 13.7% for Hybrid2 (256 B blocks / 2 KB pages) vs
// 13.3% for Bumblebee (2 KB blocks / 64 KB pages) — Bumblebee's far larger
// granularity does NOT over-fetch more, thanks to the adjustable cHBM
// capacity, the hotness threshold T, and the eviction buffering.
// Flags: --jobs N (worker threads, default all). Environment knobs:
// BB_SIM_SCALE, BB_TARGET_MISSES (default 80000), BB_WARMUP_PCT (300).
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "sim/experiment.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  sim::SystemConfig sys_cfg;
  // Steady-state measurement: warm up several multiples of the measured
  // window (BB_WARMUP_PCT, percent of the measured instructions).
  sys_cfg.warmup_ratio =
      static_cast<double>(sim::env_u64("BB_WARMUP_PCT", 300)) / 100.0;

  sim::ExperimentRunner runner(sys_cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 80'000);
  opts.min_instructions = 20'000'000;
  runner.run_matrix({"Bumblebee", "Hybrid2"},
                    trace::WorkloadProfile::spec2017(), opts);
  const auto bb_rows = runner.for_design("Bumblebee");
  const auto h2_rows = runner.for_design("Hybrid2");

  TextTable table({"workload", "Bumblebee over-fetch", "Hybrid2 over-fetch"});
  double bb_avg = 0, h2_avg = 0;
  for (std::size_t i = 0; i < bb_rows.size(); ++i) {
    table.add_row({bb_rows[i].workload, fmt_percent(bb_rows[i].overfetch, 1),
                   fmt_percent(h2_rows[i].overfetch, 1)});
    bb_avg += bb_rows[i].overfetch;
    h2_avg += h2_rows[i].overfetch;
  }
  bb_avg /= static_cast<double>(bb_rows.size());
  h2_avg /= static_cast<double>(h2_rows.size());
  table.add_row({"average", fmt_percent(bb_avg, 1), fmt_percent(h2_avg, 1)});

  std::cout << "\nSection IV-B: data brought into HBM but unused before "
               "eviction (paper: Bumblebee 13.3%, Hybrid2 13.7%)\n";
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "overfetch_analysis", {"jobs"}, run);
}
