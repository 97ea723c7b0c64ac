// Trace tooling: generate, inspect, save and replay miss traces.
//
//   ./trace_tools --workload=mcf --misses=100000 --out=mcf.bbtrace
//   ./trace_tools --in=mcf.bbtrace --replay --design=Bumblebee
//
// Demonstrates the persistence API (save_trace / load_trace) and replaying
// a canned trace through a controller — how one would plug in real traces
// (e.g. converted SPEC SimPoint miss logs) instead of the synthetic
// profiles.
#include <iostream>

#include "baselines/factory.h"
#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "trace/trace_file.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  if (flags.has("in")) {
    bool ok = false;
    auto records = trace::load_trace(flags.get_string("in", ""), &ok);
    if (!ok) {
      std::cerr << "failed to load trace\n";
      return cli::kExitIo;
    }
    const auto s = trace::measure_stream(records);
    std::cout << "Loaded " << records.size() << " records: MPKI "
              << fmt_double(1000.0 / s.mean_inst_gap, 1) << ", writes "
              << fmt_percent(s.write_fraction) << ", 4K pages touched "
              << s.unique_pages_4k << "\n";

    if (flags.has("replay")) {
      mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
      mem::DramDevice dram(mem::DramTimingParams::ddr4_3200_10gb());
      auto design = baselines::make_design(
          flags.get_string("design", "Bumblebee"), hbm, dram);
      trace::TraceReplayer rep(std::move(records));
      Tick now = 0;
      const u64 n = flags.get_u64("misses", rep.size());
      for (u64 i = 0; i < n; ++i) {
        const auto rec = rep.next();
        now += rec.inst_gap * 280;  // ~1 IPC pacing
        design->access(rec.addr, rec.type, now);
      }
      const auto& st = design->stats();
      std::cout << "Replayed " << st.requests << " requests on "
                << design->name() << ": HBM serve "
                << fmt_percent(st.hbm_serve_rate()) << ", mean latency "
                << fmt_double(st.mean_latency_ns(), 1) << " ns\n";
    }
    return 0;
  }

  const std::string workload = flags.get_string("workload", "mcf");
  const u64 misses = flags.get_u64("misses", 100'000);
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name(workload),
                            flags.get_u64("seed", 42));
  const auto records = gen.take(misses);

  const std::string out = flags.get_string("out", "");
  if (!out.empty()) {
    if (!trace::save_trace(out, records)) {
      std::cerr << "failed to write " << out << "\n";
      return cli::kExitIo;
    }
    std::cout << "Wrote " << records.size() << " records to " << out << "\n";
  } else {
    const auto s = trace::measure_stream(records);
    std::cout << workload << ": MPKI "
              << fmt_double(1000.0 / s.mean_inst_gap, 1)
              << ", 64K-page block use " << fmt_percent(s.page64k_block_use)
              << ", top-1% share " << fmt_percent(s.top1pct_share) << "\n";
  }
  return 0;
}

}  // namespace

// cli_main maps the TraceReplayer empty-trace rejection (and any other
// invalid_argument) to exit 2 per the shared CLI contract.
int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "trace_tools",
                       {"design", "in", "misses", "out", "replay", "seed",
                        "workload"},
                       run);
}
