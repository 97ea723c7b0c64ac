// Table II reproduction: benchmark characteristics of the synthetic
// SPEC CPU2017 profiles — target vs generated MPKI, footprint, and the
// measured locality axes that drive Figure 1's taxonomy.
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "sim/system.h"
#include "trace/generator.h"

using namespace bb;

namespace {

int run(const Flags&) {
  const u64 sample = sim::env_u64("BB_TARGET_MISSES", 400'000);

  std::cout << "Table II: benchmark characteristics (synthetic profiles)\n";
  TextTable table({"benchmark", "class", "MPKI (paper)", "MPKI (gen)",
                   "footprint GB (paper)", "64K-page block use",
                   "top-1% page share"});
  for (const auto& w : trace::WorkloadProfile::spec2017()) {
    trace::TraceGenerator gen(w, 11);
    const auto recs = gen.take(sample);
    const auto s = trace::measure_stream(recs);
    table.add_row({w.name, to_string(w.mpki_class), fmt_double(w.mpki, 1),
                   fmt_double(1000.0 / s.mean_inst_gap, 1),
                   fmt_double(w.footprint_gb, 1),
                   fmt_percent(s.page64k_block_use, 1),
                   fmt_percent(s.top1pct_share, 1)});
  }
  table.print(std::cout);
  std::cout << "\n'64K-page block use' approximates spatial locality (share "
               "of a touched 64 KB page's 2 KB blocks that get used); "
               "'top-1% page share' approximates temporal locality (miss "
               "share of the hottest 1% of 4 KB pages).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "table2_benchmarks", {}, run);
}
