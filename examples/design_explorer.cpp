// Design-space exploration through the public API: sweep Bumblebee's block
// and page size for one workload and report performance, metadata budget
// and over-fetch — the Figure 6 / Section IV-B methodology on a single
// benchmark, as a library user would run it.
//
//   ./design_explorer [workload] [instructions] [--jobs N] [--baseline D]
//
// --jobs N spreads the nine configurations over N worker threads
// (default: all hardware threads). --baseline picks the normalization
// design (factory name, default DRAM-only).
#include <iostream>
#include <string>

#include "baselines/factory.h"
#include "bumblebee/config.h"
#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "sim/experiment.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  const auto& pos = flags.positional();
  const std::string workload_name = !pos.empty() ? pos[0] : "cactuBSSN";
  const u64 instructions = pos.size() > 1 ? std::stoull(pos[1]) : 30'000'000;
  const std::string baseline = flags.get_string("baseline", "DRAM-only");
  baselines::require_design_names({baseline});
  trace::require_workload_names({workload_name});

  const auto& w = trace::WorkloadProfile::by_name(workload_name);

  std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>> configs;
  for (const u64 block_kb : {1, 2, 4}) {
    for (const u64 page_kb : {64, 96, 128}) {
      bumblebee::BumblebeeConfig cfg;
      cfg.block_bytes = block_kb * KiB;
      cfg.page_bytes = page_kb * KiB;
      configs.emplace_back(std::to_string(block_kb) + " KiB / " +
                               std::to_string(page_kb) + " KiB",
                           cfg);
    }
  }

  sim::ExperimentRunner runner;
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.instructions = instructions;
  runner.run_matrix({baseline}, {w}, opts);
  runner.run_bumblebee_matrix(configs, {w}, opts);

  const double base_ipc = runner.results().front().ipc;
  std::cout << "Design space for " << w.name << " (normalized to "
            << baseline << " " << fmt_double(base_ipc, 2) << " IPC)\n\n";
  TextTable table({"block", "page", "normalized IPC", "HBM serve",
                   "over-fetch", "metadata"});
  for (const auto& [label, cfg] : configs) {
    const auto r = runner.for_design(label).front();
    const auto geo = bumblebee::Geometry::make(cfg, 1 * GiB, 10 * GiB);
    const auto budget = bumblebee::metadata_budget(cfg, geo);
    const auto slash = label.find(" / ");
    table.add_row({label.substr(0, slash), label.substr(slash + 3),
                   fmt_double(r.ipc / base_ipc, 2),
                   fmt_percent(r.hbm_serve_rate),
                   fmt_percent(r.overfetch),
                   fmt_bytes(static_cast<double>(budget.total()))});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "design_explorer", {"baseline", "jobs"},
                       run);
}
