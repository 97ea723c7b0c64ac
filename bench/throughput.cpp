// bench/throughput — the raw-speed scoreboard.
//
// Runs a fixed workload x design matrix (the same cells every PR), times
// each cell on the host clock via bb::prof, and writes a schema-versioned
// BENCH_throughput.json with per-cell simulated-requests/second, phase
// breakdown and peak RSS. The checked-in copy at the repo root is the
// speed campaign's trajectory: every PR that touches a hot path reruns
// this harness and appends its point; CI's perf-smoke job warns on >25%
// regression against the checked-in file (tools/check_bench_schema).
//
// Protocol: per cell, `--warmup-reps` repetitions are run and discarded
// (page cache, allocator and branch-predictor warmup), then `--reps`
// measured repetitions; the *median* repetition by requests/sec is
// reported, so one scheduler hiccup cannot move the trajectory.
//
//   ./throughput                  full protocol, writes BENCH_throughput.json
//   ./throughput --quick          CI smoke: fewer/shorter reps
//   ./throughput --out=FILE --git-rev=REV --reps=N --warmup-reps=N
//                --instructions=N
//
// Exit codes: 0 ok, 2 usage, 3 I/O, 4 internal (the bbsim contract).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/snapshot.h"
#include "common/prof.h"
#include "common/table.h"
#include "sim/experiment.h"

using namespace bb;

namespace {

struct Cell {
  const char* design;
  const char* workload;
};

// The fixed matrix. Chosen to cover the three hot paths that dominate a
// full comparison sweep: the trivial baseline (DRAM-only), the paper's
// design on a high- and a medium-MPKI workload (Bumblebee spends most of
// its time in hmm-access + device-timing), and the heaviest competing
// metadata scheme (Hybrid2). Changing this set invalidates the trajectory
// — append workloads only.
constexpr Cell kCells[] = {
    {"DRAM-only", "mcf"},
    {"Bumblebee", "mcf"},
    {"Bumblebee", "lbm"},
    {"Hybrid2", "mcf"},
};

struct RepSummary {
  double wall_seconds = 0;
  u64 requests = 0;
  double requests_per_sec = 0;
  prof::PhaseTotals phases;
};

/// Best-effort git revision: walks up from the current directory to the
/// first .git/HEAD and resolves the symbolic ref (loose or packed).
/// "unknown" when anything is missing — the bench must work from a
/// tarball too.
std::string detect_git_rev() {
  std::string prefix;
  for (int depth = 0; depth < 10; ++depth) {
    std::ifstream head(prefix + ".git/HEAD");
    if (head) {
      std::string line;
      std::getline(head, line);
      if (line.rfind("ref: ", 0) != 0) return line.substr(0, 12);
      const std::string ref = line.substr(5);
      if (std::ifstream ref_file{prefix + ".git/" + ref}) {
        std::string hash;
        std::getline(ref_file, hash);
        if (!hash.empty()) return hash.substr(0, 12);
      }
      if (std::ifstream packed{prefix + ".git/packed-refs"}) {
        std::string pline;
        while (std::getline(packed, pline)) {
          if (pline.size() > 41 && pline.compare(41, ref.size(), ref) == 0) {
            return pline.substr(0, 12);
          }
        }
      }
      return "unknown";
    }
    prefix += "../";
  }
  return "unknown";
}

std::string cell_to_json(const Cell& cell, const RepSummary& rep,
                         u64 peak_rss) {
  std::ostringstream os;
  os << "{\"design\": \"" << json_escape(cell.design) << "\", \"workload\": \""
     << json_escape(cell.workload) << "\", \"requests\": " << rep.requests
     << ", \"wall_seconds\": " << json_double(rep.wall_seconds)
     << ", \"requests_per_sec\": " << json_double(rep.requests_per_sec)
     << ", \"peak_rss_bytes\": " << peak_rss
     << ", \"phases\": " << prof::phases_to_json(rep.phases) << "}";
  return os.str();
}

int run(const Flags& flags) {
  if (flags.has("help")) {
    std::cout
        << "usage: throughput [--quick] [--reps=N] [--warmup-reps=N]\n"
           "                  [--instructions=N] [--out=FILE] [--git-rev=R]\n"
           "Measures simulated-requests/second on a fixed design x workload\n"
           "matrix (median of N reps, warmup discarded) and writes a\n"
           "schema-versioned BENCH_throughput.json.\n"
           "exit codes: 0 ok, 2 usage, 3 I/O, 4 internal\n";
    return cli::kExitOk;
  }
  const bool quick = flags.has("quick");
  const u64 reps = flags.get_u64("reps", quick ? 2 : 3);
  const u64 warmup_reps = flags.get_u64("warmup-reps", 1);
  const u64 instructions =
      flags.get_u64("instructions", quick ? 1'000'000 : 8'000'000);
  const std::string out_path =
      flags.get_string("out", "BENCH_throughput.json");
  const std::string git_rev = flags.get_string("git-rev", detect_git_rev());
  if (reps == 0) {
    throw std::invalid_argument("--reps must be >= 1");
  }

  // Warmup inside a repetition would make requests != measured misses, so
  // the simulated warmup is zero; host-side warmup is the discarded reps.
  sim::SystemConfig cfg;
  cfg.warmup_ratio = 0.0;

  std::vector<std::string> cell_json;
  TextTable table(
      {"design", "workload", "requests", "wall (s)", "req/s (median)"});

  for (const Cell& cell : kCells) {
    const auto& workload = trace::WorkloadProfile::by_name(cell.workload);
    std::vector<RepSummary> measured;
    for (u64 rep = 0; rep < warmup_reps + reps; ++rep) {
      prof::reset();
      prof::enable(true);
      const prof::Stopwatch clock;
      sim::System system(cfg);
      const sim::RunResult r = system.run(cell.design, workload, instructions);
      RepSummary s;
      s.wall_seconds = clock.seconds();
      s.requests = r.misses;
      s.requests_per_sec =
          s.wall_seconds > 0
              ? static_cast<double>(s.requests) / s.wall_seconds
              : 0.0;
      s.phases = prof::aggregate();
      prof::enable(false);
      if (rep >= warmup_reps) measured.push_back(s);
    }
    std::sort(measured.begin(), measured.end(),
              [](const RepSummary& a, const RepSummary& b) {
                return a.requests_per_sec < b.requests_per_sec;
              });
    const RepSummary& median = measured[measured.size() / 2];
    cell_json.push_back(cell_to_json(cell, median, prof::peak_rss_bytes()));
    table.add_row({cell.design, cell.workload, std::to_string(median.requests),
                   fmt_double(median.wall_seconds, 3),
                   fmt_double(median.requests_per_sec, 0)});
    std::cerr << "[throughput] " << cell.design << "/" << cell.workload
              << ": " << fmt_double(median.requests_per_sec, 0)
              << " req/s\n";
  }

  // Rendered in memory and committed atomically (temp + rename), so a
  // crash mid-write never leaves a torn BENCH file for bb_perf to trip on.
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"bb-bench-throughput\",\n"
      << "  \"schema_version\": 1,\n"
      << "  \"git_rev\": \"" << json_escape(git_rev) << "\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"warmup_reps\": " << warmup_reps << ",\n"
      << "  \"instructions\": " << instructions << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cell_json.size(); ++i) {
    out << "    " << cell_json[i] << (i + 1 < cell_json.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  snap::write_file_atomic(out_path, out.str());

  table.print(std::cout);
  std::cout << "wrote " << out_path << " (git " << git_rev << ")\n";
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "throughput",
                       {"git-rev", "help", "instructions", "out", "quick",
                        "reps", "warmup-reps"},
                       run);
}
