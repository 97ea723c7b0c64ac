// Sensitivity ablations for the design choices the paper fixes by fiat:
//   * hot-table off-chip queue depth (paper: 8, "for a balance between the
//     performance and metadata size"),
//   * the "most blocks cached" switch threshold for cHBM -> mHBM,
//   * the zombie-page window (movement trigger 3).
//
// Three representative workloads spanning the Figure 1 taxonomy. Results
// justify the defaults: depth 8 and a majority switch threshold are on the
// flat part of the curve.
//
// Flags: --jobs N (worker threads, default = all hardware threads).
#include <iostream>

#include "bumblebee/config.h"
#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "sim/experiment.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  sim::SystemConfig sys_cfg;
  sys_cfg.warmup_ratio =
      static_cast<double>(sim::env_u64("BB_WARMUP_PCT", 200)) / 100.0;
  sim::ExperimentRunner runner(sys_cfg);

  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 60'000);
  opts.min_instructions = 20'000'000;

  const std::vector<std::string> workload_names = {"mcf", "wrf", "roms"};
  std::vector<trace::WorkloadProfile> workloads;
  for (const auto& name : workload_names) {
    workloads.push_back(trace::WorkloadProfile::by_name(name));
  }

  // Every sweep point is one labelled configuration; a single matrix runs
  // them all (plus the shared DRAM-only baseline) across the workloads.
  std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>> configs;
  for (u32 depth : {2u, 4u, 8u, 16u}) {
    bumblebee::BumblebeeConfig c;
    c.dram_queue_depth = depth;
    configs.emplace_back("depth " + std::to_string(depth), c);
  }
  for (double f : {0.25, 0.5, 0.75, 0.9}) {
    bumblebee::BumblebeeConfig c;
    c.switch_fraction = f;
    configs.emplace_back("switch > " + fmt_percent(f, 0), c);
  }
  for (u32 wdw : {256u, 1024u, 4096u}) {
    bumblebee::BumblebeeConfig c;
    c.zombie_window = wdw;
    configs.emplace_back("window " + std::to_string(wdw), c);
  }

  runner.run_matrix({"DRAM-only"}, workloads, opts);
  runner.run_bumblebee_matrix(configs, workloads, opts);

  auto sweep = [&](const std::string& title, std::size_t first,
                   std::size_t count) {
    std::cout << "\n" << title << " (normalized IPC)\n";
    std::vector<std::string> headers = {"setting"};
    for (const auto& w : workload_names) headers.push_back(w);
    TextTable table(headers);
    for (std::size_t c = first; c < first + count; ++c) {
      std::vector<std::string> row = {configs[c].first};
      for (const auto& [workload, ratio] :
           runner.normalized(configs[c].first, "DRAM-only",
                             sim::metric_ipc)) {
        (void)workload;
        row.push_back(fmt_double(ratio, 2));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  };

  sweep("Hot-table off-chip queue depth (paper default: 8)", 0, 4);
  sweep("cHBM->mHBM switch threshold (paper: most blocks cached)", 4, 4);
  sweep("Zombie-page window (set accesses)", 8, 3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "sensitivity_sweeps", {"jobs"}, run);
}
