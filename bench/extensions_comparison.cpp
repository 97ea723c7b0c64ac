// Extension study: Bumblebee against the two POM ancestors the paper
// cites but does not plot — PoM (reference [6], competing-counter sector
// swaps) and MemPod (reference [8], interval-based MEA migration) — on
// one workload per Figure 1 quadrant.
// Flags: --jobs N (worker threads, default all). Environment knobs:
// BB_SIM_SCALE, BB_TARGET_MISSES (default 60000), BB_WARMUP_PCT (200).
#include <iostream>

#include "baselines/factory.h"
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

  std::vector<trace::WorkloadProfile> workloads;
  for (const char* name : {"mcf", "wrf", "xz", "roms"}) {
    workloads.push_back(trace::WorkloadProfile::by_name(name));
  }
  const std::vector<std::string> designs = {"DRAM-only", "PoM", "MemPod",
                                            "Chameleon", "Bumblebee"};
  baselines::require_design_names(designs);

  sim::ExperimentRunner runner(sys_cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 60'000);
  opts.min_instructions = 20'000'000;
  runner.run_matrix(designs, workloads, opts);

  std::cout << "Normalized IPC: Bumblebee vs POM-family designs\n";
  std::vector<std::string> headers = {"design"};
  for (const auto& w : workloads) headers.push_back(w.name);
  TextTable table(headers);
  for (std::size_t d = 1; d < designs.size(); ++d) {
    std::vector<std::string> row = {designs[d]};
    for (const auto& entry :
         runner.normalized(designs[d], "DRAM-only", sim::metric_ipc)) {
      row.push_back(fmt_double(entry.second, 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "extensions_comparison", {"jobs"}, run);
}
