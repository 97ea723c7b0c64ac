// Experiment runner: executes (design x workload) matrices, accumulates
// RunResults, and exports them as aligned text or CSV. The bench harnesses
// use it for their sweeps; downstream users get machine-readable results
// for plotting.
//
// Matrices can run on a worker pool (RunMatrixOptions::jobs): every worker
// owns a private System (System::run leaks no state between runs), and
// finished cells commit back in matrix order — workload-major, design-minor
// — through one ordered driver shared by every matrix phase, so serial and
// parallel executions of the same matrix produce byte-identical results()
// and writer output.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "bumblebee/config.h"
#include "common/prof.h"
#include "sim/mix.h"
#include "sim/system.h"

namespace bb::sim {

/// Checkpoint journal for long sweeps: one JSON object per completed cell,
/// appended as cells finish (wire RunMatrixOptions::on_result to
/// append_line on an O_APPEND stream). On restart, load() the file and pass
/// the journal via RunMatrixOptions::resume — finished cells are restored
/// from it instead of re-simulated.
///
/// Every line is one RunResult, as line() writes it. A mix co-run's line
/// also carries its scores and a "cores" array; that array is what tells
/// it apart from an alone-baseline row of the same (design, name), as in
/// --mix=mcf. Lines with a "kind" key (the mix journal format that kept
/// baselines and co-runs apart by kind) are malformed.
///
/// A journal of one sweep (bbsim's) opens with the header line
/// {"sweep":"<hash>"}, the sweep_hash of the configuration and budget rule
/// its rows were simulated under; a journal built for that sweep restores
/// rows only from a stream that opens with the same header.
class ResultJournal {
 public:
  struct LoadStats {
    std::size_t restored = 0;   ///< well-formed lines restored
    std::size_t malformed = 0;  ///< unparseable or incomplete lines skipped
    bool header = false;   ///< the stream opened with this sweep's header
    /// The stream holds lines under a missing or different sweep header;
    /// none of them was read.
    bool foreign = false;
  };

  /// A journal of sweep `sweep` (see sweep_hash). An empty sweep reads
  /// header-less streams, every line a row.
  explicit ResultJournal(std::string sweep = {});

  /// The first line of a journal of this sweep (no newline).
  std::string header() const;

  /// Parses journal lines. Malformed lines (e.g. a truncated final line
  /// from a killed run) are counted and skipped, never fatal. When
  /// `well_formed` is non-null it collects every kept line verbatim (the
  /// header included), so a resuming caller can atomically rewrite a torn
  /// journal without the truncated tail.
  LoadStats load_stats(std::istream& is,
                       std::vector<std::string>* well_formed = nullptr);

  /// The last journaled row of cell (design, workload), or nullptr;
  /// `co_run` selects a mix co-run row over a plain one. Watchdog
  /// placeholders are never found, so a resumed sweep retries them.
  const RunResult* find(const std::string& design,
                        const std::string& workload,
                        bool co_run = false) const;
  std::size_t size() const { return rows_.size(); }

  /// Serializes one result as a single journal line (no newline). The line
  /// is the JSON object write_json emits for the run; each optional field
  /// group (reliability, queue, timed_out) is included only when any of
  /// its fields is nonzero, and a co-run's scores and cores always are.
  static std::string line(const RunResult& r);

 private:
  std::string sweep_;
  std::vector<RunResult> rows_;
};

/// Execution options for run_matrix / run_bumblebee_matrix.
struct RunMatrixOptions {
  /// Worker threads for the matrix. 0 = one per hardware thread; 1 runs the
  /// cells inline on the calling thread (the historical serial behavior).
  unsigned jobs = 0;
  /// Called once per completed cell, always in matrix order (workload-major,
  /// design-minor) regardless of which worker finished first. Invoked under
  /// the runner's commit lock, so it needs no synchronization of its own.
  /// Not called for cells restored from `resume` (they are already
  /// journaled).
  std::function<void(const RunResult&)> on_result;
  /// Emit a cells-done / elapsed / ETA line to stderr as cells complete.
  bool progress = false;
  /// Fixed per-cell instruction budget. 0 derives a per-workload budget
  /// from target_misses via default_instructions_for.
  u64 instructions = 0;
  u64 target_misses = 200'000;
  u64 min_instructions = 50'000'000;
  u64 max_instructions = 400'000'000;
  /// Checkpoint journal from an earlier (interrupted) run of the same
  /// matrix: cells found in it are restored, not re-simulated.
  const ResultJournal* resume = nullptr;
  /// Cooperative cancellation, polled before each cell (e.g. a SIGINT
  /// flag). Once it returns true no further cell commits, journal-restored
  /// or not; cells already running finish and still commit, so results()
  /// (and the journal) always hold a matrix-order prefix of the matrix.
  std::function<bool()> cancel;
  /// Watchdog: per-cell soft deadline in host seconds (0 = no deadline).
  /// A cell past the deadline is interrupted at a record boundary and
  /// retried — resuming from the snapshot the interrupted attempt left
  /// behind when SystemConfig::snapshot is configured — up to
  /// `cell_retries` times. When the retries are exhausted the cell commits
  /// as a `timed_out` placeholder row (all measurements zero) and the rest
  /// of the sweep continues.
  double cell_timeout_s = 0;
  u32 cell_retries = 1;
};

/// Hash (16 hex digits) of what every cell of a sweep depends on beyond
/// its design and workload: the seed, the warmup ratio, config_fingerprint
/// and the budget rule (fixed instructions, target misses, min/max).
/// Snapshot, watchdog and scheduling settings are not part of it: they
/// never change a result.
std::string sweep_hash(const SystemConfig& cfg, const RunMatrixOptions& opts);

/// First unused quarantine path for a corrupt artifact: `path + ".corrupt"`,
/// then ".corrupt.1", ".corrupt.2", ... — an earlier quarantined file is
/// never overwritten.
std::string quarantine_name(const std::string& path);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(SystemConfig cfg = SystemConfig{});

  /// Runs every (design, workload) pair, possibly in parallel (see
  /// RunMatrixOptions). Results append to results() in matrix order.
  void run_matrix(const std::vector<std::string>& designs,
                  const std::vector<trace::WorkloadProfile>& workloads,
                  const RunMatrixOptions& opts);

  /// Trace-replay matrix: every design replays the recorded binary trace
  /// at `replay.path` (see src/trace/stream.h). Results carry workload =
  /// `replay.label`. Each cell opens its own bounded-memory
  /// StreamingTraceReader, so peak RSS is independent of trace length.
  /// opts.instructions must be set: a trace has no MPKI to derive a budget
  /// from (trace_info(path).inst_gap_total is the budget for exactly one
  /// pass). The trace is structurally validated up front; bad files throw
  /// trace::TraceError.
  struct ReplayMatrixOptions {
    std::string path;
    std::string label;  ///< result workload name (e.g. the file stem)
  };
  void run_replay_matrix(const std::vector<std::string>& designs,
                         const ReplayMatrixOptions& replay,
                         const RunMatrixOptions& opts);

  /// Design-space exploration matrix: one cell per (labelled Bumblebee
  /// configuration, workload). Each result's design field is the label.
  void run_bumblebee_matrix(
      const std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>>&
          configs,
      const std::vector<trace::WorkloadProfile>& workloads,
      const RunMatrixOptions& opts);

  /// Multi-programmed mix matrix (see sim/mix.h), in two phases:
  ///   1. Alone baselines: an ordinary one-core run_matrix over every
  ///      workload the mixes name, with observability and trace capture
  ///      off, on a runner of its own (its rows feed only the speedup
  ///      denominators and never reach results()).
  ///   2. Co-runs: every (design, mix) cell via run_mix_cell, mix-major and
  ///      design-minor, appended to results() like any matrix cell.
  /// Both phases share opts: the journal, resume, cancel, watchdog and
  /// on_result see every alone and co-run cell, and every output is
  /// byte-identical across --jobs values. opts.instructions is the
  /// per-core budget; 0 derives one shared budget as the max
  /// default_instructions_for over every workload named by the mixes.
  void run_mix_matrix(const std::vector<std::string>& designs,
                      const std::vector<MixSpec>& mixes,
                      const RunMatrixOptions& opts);

  /// Writes one CSV row per (design, mix, core) of the co-run rows: the
  /// core's shared-run numbers, its alone-run baseline and speedup, plus
  /// the mix-level weighted/hmean speedup and max slowdown repeated on
  /// every row of the cell (keeps the file flat and greppable).
  void write_mix_csv(std::ostream& os) const;

  /// Writes the co-run rows as a JSON array: mix-level scores, the full
  /// aggregate RunResult and the per-core breakdown.
  void write_mix_json(std::ostream& os) const;

  /// Adds a single externally produced result.
  void add(const RunResult& r) { results_.push_back(r); }

  const std::vector<RunResult>& results() const { return results_; }

  /// All results for one design, in insertion order.
  std::vector<RunResult> for_design(const std::string& design) const;

  /// Results normalized per-workload against `baseline_design`'s rows;
  /// `metric` picks the value. Missing baseline rows are skipped.
  std::vector<std::pair<std::string, double>> normalized(
      const std::string& design, const std::string& baseline_design,
      double (*metric)(const RunResult&)) const;

  /// Writes every result as CSV (one row per run, fixed column set).
  void write_csv(std::ostream& os) const;

  /// Writes every result as a JSON array, one object per run. Unlike the
  /// CSV this is the *full* RunResult, including the per-traffic-class
  /// byte counters (hbm_class_bytes / dram_class_bytes) the CSV flattens
  /// into single totals.
  void write_json(std::ostream& os) const;

  /// Profiled variant (bbsim --profile --json): wraps the plain array in
  /// {"runs": [...], "host": {...}} with the host-side performance report.
  /// The "runs" payload is byte-identical to write_json(os) — the host
  /// section never enters a golden-hashed stream, which only ever uses the
  /// plain overload.
  void write_json(std::ostream& os, const prof::HostReport& host) const;

  /// Profiled variant of write_mix_json, same wrapping contract.
  void write_mix_json(std::ostream& os, const prof::HostReport& host) const;

  /// Writes the epoch time-series of every run that carries artifacts as
  /// one flat CSV: design, workload, epoch, start/end tick, requests, then
  /// the union of all runs' metric columns (cells a run lacks stay empty).
  /// Rows appear in matrix order, so the file is --jobs independent.
  void write_epoch_csv(std::ostream& os) const;

  enum class TraceFormat { kJsonl, kChrome };

  /// Writes every run's trace events. kJsonl: one JSON object per event
  /// with design/workload stamped on each line. kChrome: a single Chrome
  /// trace_event document (Perfetto-loadable) with one process per run.
  void write_trace(std::ostream& os, TraceFormat format) const;

 private:
  /// One matrix cell: run design index `d` of the current matrix against
  /// `w` for `instr` instructions on the given (worker-private) System,
  /// reading `lanes` (shared-stream cursors; empty when not shared).
  using CellFn = std::function<RunResult(
      System&, std::size_t d, const trace::WorkloadProfile& w, u64 instr,
      const LaneSources& lanes)>;

  /// Runs every (design, workload) cell through the ordered matrix driver;
  /// `designs` are the names result rows and resume lookups are keyed by.
  /// With `share_streams`, each (workload, lane) miss stream is generated
  /// once and read by every cell of the workload, unless a cell could need
  /// to rewind it: snapshots, capture and the watchdog's retries keep
  /// private generators.
  void run_cells(const std::vector<std::string>& designs,
                 const std::vector<trace::WorkloadProfile>& workloads,
                 const CellFn& cell, const RunMatrixOptions& opts,
                 bool share_streams);

  SystemConfig cfg_;
  std::vector<RunResult> results_;
};

}  // namespace bb::sim
