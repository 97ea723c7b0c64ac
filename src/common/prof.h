// bb::prof — host-side performance observability.
//
// Everything in this namespace measures the *simulator process* (wall
// clock, phase breakdown, peak RSS), never the simulated machine. The two
// worlds are kept strictly one-directional: simulation code may *feed* the
// profiler (RAII ScopedPhase markers on hot paths), but no profiler value
// may ever flow back into simulated state or a RunResult simulated field.
// tools/bb_analyze enforces that direction with the `prof-isolation` rule:
// src/common/prof.cpp is the single sanctioned wall-clock site in the
// tree, and any RunResult field assignment whose right-hand side mentions
// a prof value is an error.
//
// Phases (exclusive self-time; entering a nested phase pauses the outer
// one, so the five buckets partition the instrumented span):
//   trace-gen       miss-record production: TraceGenerator::next, the
//                   trace reader, shared-stream chunk fills; one call per
//                   record handed to the core loop
//   hmm-access      hybrid-memory-controller request service, minus the
//                   device-timing time it nests
//   device-timing   DramDevice::access (bank/bus/queue timing model)
//   stats-commit    end-of-run RunResult assembly
//   io              result serialization (CSV/JSON/epoch/trace writers)
//
// Profiling is opt-in (bbsim --profile, perfbench's traced run). While
// disabled a ScopedPhase costs one relaxed atomic load; simulated outputs
// are byte-identical either way — the golden-run hash pins that.
//
// Per-worker aggregation: each thread accumulates into its own slot
// (registered on first use), so `--jobs` matrices profile without locks on
// the hot path; aggregate() merges the slots after the pool drains.
#pragma once

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "common/types.h"

namespace bb::prof {

enum class Phase : u8 {
  kTraceGen = 0,
  kHmmAccess,
  kDeviceTiming,
  kStatsCommit,
  kIo,
  kNone,  ///< sentinel: "outside any instrumented phase"
};

inline constexpr std::size_t kPhaseCount = 5;

/// Stable snake_case phase name ("trace_gen", ...); used as JSON keys, so
/// it must never change for a given enumerator.
const char* to_string(Phase p);

/// Per-thread (and, merged, per-process) phase accounting. Self-time only:
/// a nested ScopedPhase suspends its parent, so ns[] entries sum to the
/// instrumented wall time without double counting.
struct PhaseTotals {
  std::array<u64, kPhaseCount> ns{};     ///< exclusive wall time per phase
  std::array<u64, kPhaseCount> calls{};  ///< ScopedPhase activations

  void merge(const PhaseTotals& o);
  u64 total_ns() const;
};

/// Turns profiling on/off process-wide. Call only from the driver, between
/// runs — never from worker threads.
void enable(bool on);
bool enabled();

/// Clears every thread slot. Call between repetitions while no worker is
/// inside a ScopedPhase (e.g. before perfbench's traced run).
void reset();

/// Merged totals across every thread that ever recorded a phase.
PhaseTotals aggregate();

/// Busy (instrumented) nanoseconds per active worker thread, descending.
/// Threads that never entered a phase are omitted.
std::vector<u64> worker_busy_ns();

/// Monotonic host clock in nanoseconds. The only wall-clock primitive in
/// the tree; everything host-timed builds on it.
u64 monotonic_ns();

/// Peak resident set size of this process in bytes (0 when the platform
/// offers no cheap way to read it).
u64 peak_rss_bytes();

namespace detail {
extern std::atomic<bool> g_enabled;
/// Switches the calling thread into `p` and adds `calls` activations to
/// it, returning the suspended phase.
Phase enter(Phase p, u64 calls);
/// Ends the current phase and resumes `prev`.
void leave(Phase prev);
}  // namespace detail

/// RAII phase marker. Cheap enough for per-request hot paths: a single
/// relaxed load while profiling is off, one clock read per transition when
/// it is on. `calls` is the number of operations the span stands for: one
/// per request, or a whole batch when a span covers many records at once
/// (a shared-stream cursor bills its records once per chunk).
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p, u64 calls = 1) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      prev_ = detail::enter(p, calls);
      active_ = true;
    }
  }
  ~ScopedPhase() {
    if (active_) detail::leave(prev_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase prev_ = Phase::kNone;
  bool active_ = false;
};

/// Host wall-clock stopwatch for progress/ETA reporting and harness
/// timing. Works whether or not profiling is enabled.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_ns()) {}
  void restart() { start_ns_ = monotonic_ns(); }
  double seconds() const;

 private:
  u64 start_ns_;
};

/// One run's host-side summary — the payload of the `"host"` JSON section
/// and the `bbsim --profile` stderr report. Host-only by construction:
/// nothing in here may be copied into a RunResult simulated field.
struct HostReport {
  double wall_seconds = 0;
  u64 requests = 0;  ///< simulated memory requests completed in the run
  double requests_per_sec = 0;
  u64 peak_rss_bytes = 0;
  PhaseTotals phases;
  std::vector<u64> worker_busy_ns_by_thread;  ///< descending, active only
};

/// Assembles a HostReport from the current profiler state: phase totals,
/// worker slots and peak RSS, with requests/sec derived from the inputs.
HostReport make_host_report(double wall_seconds, u64 requests);

/// The full report as a single-line JSON object (schema_version 1).
std::string host_report_to_json(const HostReport& r);

}  // namespace bb::prof
