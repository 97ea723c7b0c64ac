// Output checks of the host-performance benchmark.
//
// Every check returns an empty string when the result is acceptable and a
// one-line reason otherwise, so run.py can count failed cells and the
// self-test can show that each check trips on a seeded bad result.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "sim/system.h"

namespace perfbench {

/// One simulated cell: it served requests, its HBM serve rate is a
/// fraction, and its per-class byte counters sum to the device totals.
std::string check_cell(const bb::sim::RunResult& r);

/// A matrix run committed exactly designs x workloads rows, in matrix
/// order (workload-major, design-minor).
std::string check_matrix_order(const std::vector<bb::sim::RunResult>& rows,
                               const std::vector<std::string>& designs,
                               const std::vector<std::string>& workloads);

/// FNV-1a 64 over every row's ResultJournal::line plus a newline, as
/// 16 lowercase hex digits.
std::string sim_digest(const std::vector<bb::sim::RunResult>& rows);

/// Layer accounting of a traced run: the measured layer self times and
/// set-up must leave a non-negative remainder of `reference_s` (the traced
/// wall time, or summed worker CPU time for a parallel matrix). The
/// remainder is the core loop's self time.
struct Closure {
  double reference_s = 0;
  double setup_s = 0;
  double layers_s = 0;
  double core_self_s = 0;
};
std::string check_closure(const Closure& c);

/// Compile-time facts about this binary that decide whether its timings
/// mean anything.
struct BuildInfo {
  std::string compiler;
  std::string build_type;
  bool bb_checks = false;  ///< BB_CHECK / BB_ASSERT compiled in
  bool asserts = false;    ///< NDEBUG not defined
  bool sanitizers = false;
};
BuildInfo this_build();

/// Why numbers from `b` must not be reported (empty when they may be).
std::string build_refusal(const BuildInfo& b);

}  // namespace perfbench
