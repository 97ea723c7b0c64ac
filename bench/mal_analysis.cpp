// Section II-B reproduction: metadata access latency (MAL) analysis.
//
// The share of total memory-request latency spent on metadata accesses,
// per design. Paper: 2% ~ 26% for designs whose metadata overflows SRAM
// (in-HBM tags, metadata caches); Bumblebee keeps all metadata in a few
// hundred KB of SRAM and its MAL share stays minimal. The Meta-H ablation
// shows what happens if Bumblebee's metadata moved to HBM.
// Flags: --jobs N (worker threads, default all). Environment knobs:
// BB_SIM_SCALE, BB_TARGET_MISSES (default 50000), BB_WARMUP_PCT (300).
#include <algorithm>
#include <iostream>
#include <vector>

#include "baselines/factory.h"
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

  // No DRAM-only column: MAL is a share of each design's own latency.
  const std::vector<std::string> designs = {"Bumblebee", "Meta-H", "Banshee",
                                            "AC", "UC", "Chameleon",
                                            "Hybrid2"};
  baselines::require_design_names(designs);

  sim::ExperimentRunner runner(sys_cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 50'000);
  opts.min_instructions = 20'000'000;
  runner.run_matrix(designs, trace::WorkloadProfile::spec2017(), opts);

  std::cout << "Section II-B: metadata access latency share of total "
               "request latency (paper: 2%~26% for prior designs)\n";
  TextTable table({"design", "min", "mean", "max"});
  for (const auto& d : designs) {
    std::vector<double> mal;
    for (const auto& r : runner.for_design(d)) mal.push_back(r.mal_fraction);
    double sum = 0;
    for (double x : mal) sum += x;
    table.add_row({d, fmt_percent(*std::min_element(mal.begin(), mal.end()), 1),
                   fmt_percent(sum / static_cast<double>(mal.size()), 1),
                   fmt_percent(*std::max_element(mal.begin(), mal.end()), 1)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "mal_analysis", {"jobs"}, run);
}
