// Figure 8 reproduction: Bumblebee vs Banshee / Alloy Cache / Unison Cache
// / Chameleon / Hybrid2, normalized to a DRAM-only baseline, grouped by
// MPKI class.
//
//   (a) normalized IPC speedup        (higher is better)
//   (b) normalized HBM traffic        (lower is better)
//   (c) normalized off-chip traffic   (lower is better; normalized to the
//       DRAM-only baseline's off-chip traffic)
//   (d) normalized memory dynamic energy (lower is better)
//
// Flags: --jobs N (worker threads, default = all hardware threads).
// Environment knobs: BB_SIM_SCALE (percent of default run length),
// BB_TARGET_MISSES (default 120000).
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

  const auto& designs = baselines::figure8_designs();
  std::vector<std::string> all_designs = {"DRAM-only"};
  all_designs.insert(all_designs.end(), designs.begin(), designs.end());
  const auto workloads = trace::WorkloadProfile::spec2017();

  std::cerr << "fig8: simulating " << workloads.size() << " workloads x "
            << all_designs.size() << " designs...\n";
  sim::ExperimentRunner runner(sys_cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 120'000);
  opts.min_instructions = 50'000'000;
  runner.run_matrix(all_designs, workloads, opts);

  const std::vector<sim::RunResult> baseline = runner.for_design("DRAM-only");
  std::vector<std::vector<sim::RunResult>> results;
  for (const auto& d : designs) results.push_back(runner.for_design(d));

  struct Panel {
    const char* title;
    double (*metric)(const sim::RunResult&);
    const char* better;
  };
  const Panel panels[] = {
      {"Figure 8(a): Normalized IPC speedup", sim::metric_ipc, "higher"},
      {"Figure 8(b): Normalized HBM traffic (vs Bumblebee)",
       sim::metric_hbm_traffic, "lower"},
      {"Figure 8(c): Normalized off-chip DRAM traffic", sim::metric_dram_traffic,
       "lower"},
      {"Figure 8(d): Normalized memory dynamic energy", sim::metric_energy,
       "lower"},
  };

  for (const auto& panel : panels) {
    std::cout << "\n" << panel.title << "  [" << panel.better
              << " is better]\n";
    TextTable table({"design", "High", "Medium", "Low", "All"});

    // HBM traffic has no DRAM-only reference (the baseline has no HBM);
    // normalize it to Bumblebee's HBM traffic instead, as the paper's
    // relative-to-best reading suggests.
    const bool vs_bumblebee = panel.metric == sim::metric_hbm_traffic;
    const std::vector<sim::RunResult>* ref = &baseline;
    if (vs_bumblebee) {
      for (std::size_t d = 0; d < designs.size(); ++d) {
        if (designs[d] == "Bumblebee") ref = &results[d];
      }
    }

    const bool sums = panel.metric != sim::metric_ipc;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const auto g = sums
                         ? sim::group_by_mpki_sums(results[d], *ref,
                                                   panel.metric)
                         : sim::group_by_mpki(results[d], *ref, panel.metric);
      table.add_row({designs[d], fmt_double(g.high, 2), fmt_double(g.medium, 2),
                     fmt_double(g.low, 2), fmt_double(g.all, 2)});
    }
    table.print(std::cout);
  }

  // Headline claims from the paper for context.
  std::cout << "\nPaper reference points: Bumblebee outperforms the best "
               "state-of-the-art design by at least 46.7% (High), 44.9% "
               "(Medium), 9.9% (Low) and 35.2% (All); 17.9% less HBM "
               "traffic and 9.1% less off-chip traffic than the best; "
               "10.9%~20.1% less memory dynamic energy.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "fig8_comparison", {"jobs"}, run);
}
