// Trace tooling: generate, inspect and save synthetic miss traces.
//
//   ./trace_tools --workload=mcf --misses=100000 --out=mcf.bbtrace
//   ./trace_tools --in=mcf.bbtrace
//   ./bbsim --replay-trace=mcf.bbtrace --designs=Bumblebee
//
// --out writes the v2 binary format (src/trace/stream.h); --in reads any
// v2 file, including bbsim --capture-trace and trace_convert output, and
// fails closed on a malformed one. Replay runs on bbsim's one run loop.
// The generator is a pure function of (workload, seed), so rerunning the
// same --out command rebuilds a file bit-exactly.
#include <iostream>
#include <stdexcept>

#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "trace/stream.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  if (flags.has("in")) {
    const auto records = trace::read_trace(flags.get_string("in", ""));
    const auto s = trace::measure_stream(records);
    std::cout << "Loaded " << records.size() << " records: MPKI "
              << fmt_double(1000.0 / s.mean_inst_gap, 1) << ", writes "
              << fmt_percent(s.write_fraction) << ", 4K pages touched "
              << s.unique_pages_4k << "\n";
    return 0;
  }

  const std::string workload = flags.get_string("workload", "mcf");
  const u64 misses = flags.get_u64("misses", 100'000);
  // Zero records is no trace: every reader rejects an empty file.
  if (misses == 0) throw std::invalid_argument("--misses must be at least 1");
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name(workload),
                            flags.get_u64("seed", 42));
  const auto records = gen.take(misses);

  const std::string out = flags.get_string("out", "");
  if (!out.empty()) {
    if (!trace::save_trace_v2(out, records)) {
      std::cerr << "trace_tools: failed to write " << out << "\n";
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

// cli_main maps a malformed or empty trace (trace::TraceError) to exit 2
// and an unreadable one to exit 3, per the shared CLI contract.
int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "trace_tools",
                       {"in", "misses", "out", "seed", "workload"}, run);
}
