// Figure 6 reproduction: design-space exploration over block and page size.
//
// Normalized IPC (geomean over all Table II benchmarks, vs the DRAM-only
// baseline) for block-page combinations {1,2,4} KB x {64,96,128} KB, and
// the metadata budget of each configuration (all must fit in 512 KB SRAM).
//
// Paper reference values (block-page, KB): 1-64: 1.98, 1-96: 1.93,
// 1-128: 1.86, 2-64: 2.00, 2-96: 1.93, 2-128: 1.87, 4-64: 1.93,
// 4-96: 1.85, 4-128: 1.78. Best: 2 KB blocks, 64 KB pages.
//
// Flags: --jobs N (worker threads, default = all hardware threads).
// Environment knobs: BB_TARGET_MISSES, BB_WARMUP_PCT, BB_SIM_SCALE.
#include <iostream>
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
  sim::ExperimentRunner runner(sys_cfg);

  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 50'000);
  opts.min_instructions = 50'000'000;

  const std::vector<std::pair<u64, u64>> combos = {
      {1, 64}, {1, 96}, {1, 128}, {2, 64}, {2, 96},
      {2, 128}, {4, 64}, {4, 96}, {4, 128}};
  const double paper[] = {1.98, 1.93, 1.86, 2.00, 1.93, 1.87, 1.93, 1.85,
                          1.78};

  std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>> configs;
  for (const auto& [block_kb, page_kb] : combos) {
    bumblebee::BumblebeeConfig cfg;
    cfg.block_bytes = block_kb * KiB;
    cfg.page_bytes = page_kb * KiB;
    configs.emplace_back(
        std::to_string(block_kb) + "-" + std::to_string(page_kb), cfg);
  }

  const auto workloads = trace::WorkloadProfile::spec2017();
  std::cerr << "fig6: " << (configs.size() + 1) << " configurations x "
            << workloads.size() << " workloads\n";
  runner.run_matrix({"DRAM-only"}, workloads, opts);
  runner.run_bumblebee_matrix(configs, workloads, opts);

  TextTable table({"block-page (KB)", "normalized IPC", "paper", "metadata"});
  for (std::size_t c = 0; c < combos.size(); ++c) {
    std::vector<double> speedups;
    for (const auto& [workload, ratio] :
         runner.normalized(configs[c].first, "DRAM-only", sim::metric_ipc)) {
      (void)workload;
      speedups.push_back(ratio);
    }

    const auto geo =
        bumblebee::Geometry::make(configs[c].second, 1 * GiB, 10 * GiB);
    const auto budget = bumblebee::metadata_budget(configs[c].second, geo);
    table.add_row({configs[c].first, fmt_double(geomean(speedups), 2),
                   fmt_double(paper[c], 2),
                   fmt_bytes(static_cast<double>(budget.total()))});
  }
  std::cout << "\nFigure 6: normalized IPC for block-page configurations\n";
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "fig6_design_space", {"jobs"}, run);
}
