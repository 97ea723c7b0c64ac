// Figure 7 reproduction: performance-factor breakdown.
//
// Geomean speedup (normalized IPC vs the DRAM-only baseline) across all
// Table II benchmarks for: C-Only, M-Only, 25%-C, 50%-C, No-Multi, Meta-H,
// Alloc-D, Alloc-H, No-HMF and full Bumblebee.
//
// Paper reference values: 1.33, 1.37, 1.54, 1.68, 1.84, 1.75, 1.52, 1.54,
// 1.86, 2.00 (same order as above, reading Meta-H = 1.75).
// Flags: --jobs N (worker threads, default all). Environment knobs:
// BB_SIM_SCALE, BB_TARGET_MISSES (default 80000), BB_WARMUP_PCT (300).
#include <iostream>
#include <map>
#include <vector>

#include "common/cli.h"
#include "common/flags.h"
#include "common/stats.h"
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

  const auto& designs = baselines::figure7_designs();
  std::vector<std::string> all_designs = {"DRAM-only"};
  all_designs.insert(all_designs.end(), designs.begin(), designs.end());
  const auto workloads = trace::WorkloadProfile::spec2017();
  const std::map<std::string, double> paper = {
      {"C-Only", 1.33}, {"M-Only", 1.37},  {"25%-C", 1.54},
      {"50%-C", 1.68},  {"No-Multi", 1.84}, {"Meta-H", 1.75},
      {"Alloc-D", 1.52}, {"Alloc-H", 1.54}, {"No-HMF", 1.86},
      {"Bumblebee", 2.00}};

  std::cerr << "fig7: simulating " << workloads.size() << " workloads x "
            << all_designs.size() << " configs...\n";
  sim::ExperimentRunner runner(sys_cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 80'000);
  opts.min_instructions = 50'000'000;
  runner.run_matrix(all_designs, workloads, opts);

  std::cout << "\nFigure 7: performance factors breakdown "
               "(geomean speedup over DRAM-only, all benchmarks)\n";
  TextTable table({"config", "geomean speedup", "paper"});
  for (const auto& d : designs) {
    std::vector<double> speedups;
    for (const auto& entry :
         runner.normalized(d, "DRAM-only", sim::metric_ipc)) {
      speedups.push_back(entry.second);
    }
    table.add_row({d, fmt_double(geomean(speedups), 2),
                   fmt_double(paper.at(d), 2)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "fig7_factor_breakdown", {"jobs"}, run);
}
