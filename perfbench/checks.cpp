#include "checks.h"

#include <cstdio>

#include "common/check.h"
#include "sim/experiment.h"

#ifndef BB_PERFBENCH_BUILD_TYPE
#define BB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string check_cell(const bb::sim::RunResult& r) {
  const std::string cell = r.design + "/" + r.workload + ": ";
  if (r.misses == 0) return cell + "no requests served";
  if (!(r.hbm_serve_rate >= 0.0 && r.hbm_serve_rate <= 1.0)) {
    return cell + "HBM serve rate outside [0, 1]";
  }
  bb::u64 hbm = 0;
  bb::u64 dram = 0;
  for (std::size_t c = 0; c < r.hbm_class_bytes.size(); ++c) {
    hbm += r.hbm_class_bytes[c];
    dram += r.dram_class_bytes[c];
  }
  if (hbm != r.hbm_bytes) return cell + "HBM class bytes do not sum to total";
  if (dram != r.dram_bytes) {
    return cell + "DRAM class bytes do not sum to total";
  }
  return {};
}

std::string check_matrix_order(const std::vector<bb::sim::RunResult>& rows,
                               const std::vector<std::string>& designs,
                               const std::vector<std::string>& workloads) {
  if (rows.size() != designs.size() * workloads.size()) {
    return "matrix committed " + std::to_string(rows.size()) + " rows, want " +
           std::to_string(designs.size() * workloads.size());
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string& d = designs[i % designs.size()];
    const std::string& w = workloads[i / designs.size()];
    if (rows[i].design != d || rows[i].workload != w) {
      return "matrix row " + std::to_string(i) + " is " + rows[i].design +
             "/" + rows[i].workload + ", want " + d + "/" + w;
    }
  }
  return {};
}

std::string sim_digest(const std::vector<bb::sim::RunResult>& rows) {
  bb::u64 h = 0xcbf29ce484222325ULL;
  auto mix = [&h](unsigned char ch) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  };
  for (const auto& r : rows) {
    for (const char ch : bb::sim::ResultJournal::line(r)) {
      mix(static_cast<unsigned char>(ch));
    }
    mix('\n');
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string check_closure(const Closure& c) {
  const double sum = c.setup_s + c.layers_s + c.core_self_s;
  if (c.core_self_s < 0) {
    return "layer accounting exceeds its reference by " +
           std::to_string(-c.core_self_s) + " s";
  }
  const double err = sum - c.reference_s;
  if (err > 1e-6 * c.reference_s + 1e-9 || err < -1e-6 * c.reference_s - 1e-9) {
    return "layers sum to " + std::to_string(sum) + " s, reference is " +
           std::to_string(c.reference_s) + " s";
  }
  return {};
}

BuildInfo this_build() {
  BuildInfo b;
#if defined(__clang__)
  b.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  b.compiler = "gcc " __VERSION__;
#else
  b.compiler = "unknown";
#endif
  b.build_type = BB_PERFBENCH_BUILD_TYPE;
  b.bb_checks = BB_CHECKS_ENABLED != 0;
#ifdef NDEBUG
  b.asserts = false;
#else
  b.asserts = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  b.sanitizers = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  b.sanitizers = true;
#endif
#endif
  return b;
}

std::string build_refusal(const BuildInfo& b) {
  if (b.asserts) return "asserts are compiled in (NDEBUG is not defined)";
  if (b.bb_checks) return "BB_CHECK invariant checks are compiled in";
  if (b.sanitizers) return "a sanitizer is compiled in";
  return {};
}

}  // namespace perfbench
