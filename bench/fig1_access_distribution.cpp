// Figure 1 reproduction: percentage of cache lines with different access
// numbers before eviction in a 1 GB cHBM, for cache-line sizes 64 B..64 KB,
// on the mcf, wrf and xz workload profiles.
//
// N is the average access number per 64 B of data in a line: the per-line
// access count divided by (line size / 64 B). Buckets follow the paper:
// N < 5, 5 <= N < 10, 10 <= N < 15, 15 <= N < 20, N >= 20.
//
// The paper's reading: mcf (strong spatial + temporal) keeps high N at all
// line sizes; wrf (weak spatial) loses hot lines as lines grow; xz (weak
// temporal) is dominated by N < 5 everywhere.
#include <iostream>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/system.h"
#include "trace/generator.h"

using namespace bb;

namespace {

int run(const Flags&) {
  const u64 base_misses = sim::env_u64("BB_TARGET_MISSES", 1'000'000);
  const std::vector<u64> line_sizes = {64,       256,      1 * KiB,
                                       4 * KiB,  16 * KiB, 64 * KiB};
  const char* buckets[] = {"N<5", "5<=N<10", "10<=N<15", "15<=N<20", "N>=20"};

  for (const char* wl : {"mcf", "wrf", "xz"}) {
    const auto& profile = trace::WorkloadProfile::by_name(wl);
    std::cout << "\nFigure 1 — " << wl << " (spatial " << profile.spatial
              << ", temporal " << profile.temporal << ")\n";
    TextTable table({"line size", buckets[0], buckets[1], buckets[2],
                     buckets[3], buckets[4]});

    for (const u64 line : line_sizes) {
      cache::CacheParams p;
      p.name = "cHBM";
      p.size_bytes = 1 * GiB;
      p.line_bytes = line;
      p.ways = 16;
      cache::Cache chbm(p);

      Histogram hist({5, 10, 15, 20});
      const double per64 = static_cast<double>(line) / 64.0;
      chbm.set_eviction_hook([&](const cache::EvictionInfo& ev) {
        hist.sample(static_cast<double>(ev.access_count) / per64);
      });

      // Cover the footprint at least twice (capped): the paper's 6 B-
      // instruction slices re-visit their data many times, and the
      // distribution is over lines, so too-short windows leave every
      // line in the N<5 bucket.
      const u64 lines64 = profile.footprint_bytes() / 64;
      const u64 misses =
          std::min<u64>(std::max(base_misses, 2 * lines64), 8'000'000);
      trace::TraceGenerator gen(profile, 7);
      for (u64 i = 0; i < misses; ++i) {
        chbm.access(gen.next().addr, AccessType::kRead);
      }
      chbm.flush();  // count lines still resident at the end

      std::vector<std::string> row = {fmt_bytes(static_cast<double>(line))};
      for (std::size_t b = 0; b < 5; ++b) {
        row.push_back(fmt_percent(hist.fraction(b), 1));
      }
      table.add_row(row);
      std::cerr << wl << " line " << line << " done\n";
    }
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "fig1_access_distribution", {}, run);
}
