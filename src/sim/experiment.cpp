#include "sim/experiment.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/json.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "trace/shared_stream.h"
#include "trace/stream.h"

namespace bb::sim {

namespace {

// Every scalar of the result artifacts is described once, in the field
// tables below. The CSV and JSON writers, the journal lines and the journal
// parser all walk them, so they cannot drift apart and a new field is a
// one-line edit.

/// Column group of a field. Base fields are always written; the others
/// only when their subsystem is configured (a sweep's CSV/JSON) or when any
/// field of the group is non-zero (a journal line), so outputs without
/// faults, queues or watchdog placeholders keep their historical shape.
/// kMix is a co-run's scores and per-core rows, which only the mix writers
/// and a co-run's journal line emit.
enum Group : unsigned {
  kBase = 0,
  kFault = 1,
  kQueue = 2,
  kTimeout = 4,
  kMix = 8,
};

/// One scalar of a result schema: JSON/CSV key, column group, member of
/// the row and CSV decimals (doubles only).
template <class Owner>
struct Field {
  const char* key;
  unsigned group;
  std::variant<std::string Owner::*, u64 Owner::*, u32 Owner::*,
               double Owner::*, bool Owner::*>
      member;
  int precision = 0;
};

// Keys that several schemas share, each spelled once.
constexpr const char* kDesign = "design";
constexpr const char* kWorkload = "workload";
constexpr const char* kInstructions = "instructions";
constexpr const char* kMisses = "misses";
constexpr const char* kIpc = "ipc";
constexpr const char* kHbmBytes = "hbm_bytes";
constexpr const char* kDramBytes = "dram_bytes";
constexpr const char* kHbmServeRate = "hbm_serve_rate";
constexpr const char* kMeanLatency = "mean_latency_ns";
constexpr const char* kLatencyP50 = "latency_p50_ns";
constexpr const char* kLatencyP99 = "latency_p99_ns";
constexpr const char* kAggregate = "aggregate";
constexpr const char* kCores = "cores";

/// RunResult, in output order.
constexpr Field<RunResult> kRunFields[] = {
    {kDesign, kBase, &RunResult::design},
    {kWorkload, kBase, &RunResult::workload},
    {kInstructions, kBase, &RunResult::instructions},
    {kMisses, kBase, &RunResult::misses},
    {kIpc, kBase, &RunResult::ipc, 4},
    {kHbmBytes, kBase, &RunResult::hbm_bytes},
    {kDramBytes, kBase, &RunResult::dram_bytes},
    {"energy_mj", kBase, &RunResult::energy_mj, 4},
    {kHbmServeRate, kBase, &RunResult::hbm_serve_rate, 4},
    {kMeanLatency, kBase, &RunResult::mean_latency_ns, 2},
    {kLatencyP50, kBase, &RunResult::latency_p50_ns, 2},
    {"latency_p90_ns", kBase, &RunResult::latency_p90_ns, 2},
    {kLatencyP99, kBase, &RunResult::latency_p99_ns, 2},
    {"latency_p999_ns", kBase, &RunResult::latency_p999_ns, 2},
    {"mal_fraction", kBase, &RunResult::mal_fraction, 4},
    {"overfetch", kBase, &RunResult::overfetch, 4},
    {"page_faults", kBase, &RunResult::page_faults},
    {"metadata_sram_bytes", kBase, &RunResult::metadata_sram_bytes},
    {"ce_count", kFault, &RunResult::ce_count},
    {"ue_count", kFault, &RunResult::ue_count},
    {"due_retries", kFault, &RunResult::due_retries},
    {"due_unrecovered", kFault, &RunResult::due_unrecovered},
    {"due_data_loss", kFault, &RunResult::due_data_loss},
    {"retired_rows", kFault, &RunResult::retired_rows},
    {"retired_frames", kFault, &RunResult::retired_frames},
    {"degraded_sets", kFault, &RunResult::degraded_sets},
    {"queueing_latency_avg", kQueue, &RunResult::queueing_latency_avg, 2},
    {"read_queue_latency_avg", kQueue, &RunResult::read_queue_latency_avg, 2},
    {"req_queue_length_avg", kQueue, &RunResult::req_queue_length_avg, 4},
    {"write_drain_count", kQueue, &RunResult::write_drain_count},
    {"timed_out", kTimeout, &RunResult::timed_out},
};

/// The per-traffic-class byte objects that close every JSON run object
/// (the CSV flattens them into the hbm_bytes / dram_bytes totals).
using ClassBytes = std::array<u64, mem::kTrafficClassCount>;
constexpr std::pair<const char*, ClassBytes RunResult::*> kClassFields[] = {
    {"hbm_class_bytes", &RunResult::hbm_class_bytes},
    {"dram_class_bytes", &RunResult::dram_class_bytes},
};

/// One core of a mix co-run, in output order.
constexpr Field<CorePerf> kCoreFields[] = {
    {"core", kBase, &CorePerf::core},
    {kWorkload, kBase, &CorePerf::workload},
    {kInstructions, kBase, &CorePerf::instructions},
    {kMisses, kBase, &CorePerf::misses},
    {kIpc, kBase, &CorePerf::ipc, 4},
    {"alone_ipc", kBase, &CorePerf::alone_ipc, 4},
    {"speedup", kBase, &CorePerf::speedup, 4},
    {kHbmServeRate, kBase, &CorePerf::hbm_serve_rate, 4},
    {kMeanLatency, kBase, &CorePerf::mean_latency_ns, 2},
    {kLatencyP50, kBase, &CorePerf::latency_p50_ns, 2},
    {kLatencyP99, kBase, &CorePerf::latency_p99_ns, 2},
    {kHbmBytes, kBase, &CorePerf::hbm_bytes},
    {kDramBytes, kBase, &CorePerf::dram_bytes},
};

/// A co-run's identity in the mix writers, which name its workload "mix".
constexpr Field<RunResult> kMixKeys[] = {
    {kDesign, kBase, &RunResult::design},
    {"mix", kBase, &RunResult::workload},
};
/// The co-run scores: the kMix group of a RunResult (the mix CSV repeats
/// them on every per-core row).
constexpr Field<RunResult> kMixScores[] = {
    {"weighted_speedup", kMix, &RunResult::weighted_speedup, 4},
    {"hmean_speedup", kMix, &RunResult::hmean_speedup, 4},
    {"max_slowdown", kMix, &RunResult::max_slowdown, 4},
};

/// Calls fn(field, value) for each field of `table` in `groups`, with
/// `value` a reference to the field in `row`.
template <class Row, class Table, class F>
void for_each_field(Row& row, const Table& table, unsigned groups, F&& fn) {
  for (const auto& f : table) {
    if ((f.group & groups) != f.group) continue;
    std::visit([&](auto m) { fn(f, row.*m); }, f.member);
  }
}

/// A field value as JSON or, given its CSV decimals, as a CSV cell.
template <class V>
std::string format_value(const V& v, std::optional<int> csv_precision = {}) {
  if constexpr (std::is_same_v<V, std::string>) {
    return csv_precision ? v : '"' + json_escape(v) + '"';
  } else if constexpr (std::is_same_v<V, double>) {
    return csv_precision ? fmt_double(v, *csv_precision) : json_double(v);
  } else {
    return std::to_string(v);
  }
}

/// Appends `"key":value,` — callers close the object over the comma.
void append_member(std::string& out, const char* key,
                   const std::string& value) {
  out += '"' + std::string(key) + "\":" + value + ',';
}

template <class Row, class Table>
void append_json(std::string& out, const Row& row, const Table& table,
                 unsigned groups) {
  for_each_field(row, table, groups, [&](const auto& f, const auto& v) {
    append_member(out, f.key, format_value(v));
  });
}

template <class Table>
void append_keys(std::vector<std::string>& out, const Table& table,
                 unsigned groups) {
  for (const auto& f : table) {
    if ((f.group & groups) == f.group) out.emplace_back(f.key);
  }
}

template <class Row, class Table>
void append_cells(std::vector<std::string>& out, const Row& row,
                  const Table& table, unsigned groups) {
  for_each_field(row, table, groups, [&](const auto& f, const auto& v) {
    out.push_back(format_value(v, f.precision));
  });
}

/// Reads every field of `table` from a JSON object; absent keys read as
/// zero / empty.
template <class Row, class Table>
void parse_fields(const JsonValue& obj, Row& row, const Table& table) {
  for_each_field(row, table, ~0u, [&](const auto& f, auto& v) {
    using V = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<V, std::string>) {
      v = obj.get_string(f.key);
    } else {
      v = static_cast<V>(obj.get_number(f.key));
    }
  });
}

/// The optional groups holding at least one non-zero field of `r`, plus
/// kMix for a co-run — what a journal line must carry to round-trip the
/// row.
unsigned nonzero_groups(const RunResult& r) {
  unsigned groups = r.core_perf ? kMix : kBase;
  for_each_field(r, kRunFields, ~0u, [&](const auto& f, const auto& v) {
    if constexpr (!std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
      if (v != 0) groups |= f.group;
    }
  });
  return groups;
}

/// The optional column groups of a sweep's CSV and JSON: fault and queue
/// columns when that subsystem is configured, timed_out when some row is a
/// watchdog placeholder.
unsigned column_groups(const SystemConfig& cfg,
                       const std::vector<RunResult>& results) {
  unsigned groups = kBase;
  if (cfg.fault.enabled()) groups |= kFault;
  if (cfg.hbm.queue.enabled || cfg.dram.queue.enabled) groups |= kQueue;
  for (const RunResult& r : results) groups |= r.timed_out ? kTimeout : kBase;
  return groups;
}

/// A co-run's per-core rows as a JSON array.
std::string cores_json(const std::vector<CorePerf>& cores) {
  std::string out = "[";
  for (const CorePerf& core : cores) {
    if (out.size() > 1) out += ',';
    out += '{';
    append_json(out, core, kCoreFields, kBase);
    out.back() = '}';
  }
  return out + ']';
}

/// One result as a single-line JSON object: the element format of
/// write_json and the line format of the checkpoint journal. With kMix in
/// `groups`, a co-run also carries its scores and per-core rows.
std::string to_json(const RunResult& r, unsigned groups) {
  std::string out = "{";
  append_json(out, r, kRunFields, groups);
  for (const auto& [key, member] : kClassFields) {
    std::string obj = "{";
    for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
      append_member(obj, mem::to_string(static_cast<mem::TrafficClass>(c)),
                    std::to_string((r.*member)[c]));
    }
    obj.back() = '}';
    append_member(out, key, obj);
  }
  if ((groups & kMix) != 0 && r.core_perf) {
    append_json(out, r, kMixScores, kMix);
    append_member(out, kCores, cores_json(*r.core_perf));
  }
  out.back() = '}';
  return out;
}

/// One co-run as the element of write_mix_json: its identity and scores,
/// the aggregate run object, then the per-core rows.
std::string to_mix_json(const RunResult& r, unsigned groups) {
  std::string out = "{";
  append_json(out, r, kMixKeys, kBase);
  append_json(out, r, kMixScores, kMix);
  append_member(out, kAggregate, to_json(r, groups & ~kMix));
  append_member(out, kCores, cores_json(*r.core_perf));
  out.back() = '}';
  return out;
}

/// Parses a journal line. Returns false when the identifying keys are
/// missing.
bool parse_run(const JsonValue& v, RunResult& r) {
  parse_fields(v, r, kRunFields);
  if (r.design.empty() || r.workload.empty()) return false;
  for (const auto& [key, member] : kClassFields) {
    const JsonValue* obj = v.find(key);
    if (!obj || !obj->is_object()) continue;
    for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
      (r.*member)[c] = static_cast<u64>(obj->get_number(
          mem::to_string(static_cast<mem::TrafficClass>(c))));
    }
  }
  const JsonValue* cores = v.find(kCores);
  if (cores && cores->type == JsonValue::Type::kArray) {
    parse_fields(v, r, kMixScores);
    r.core_perf = std::make_shared<std::vector<CorePerf>>();
    for (const JsonValue& cv : cores->array) {
      if (cv.is_object()) {
        parse_fields(cv, r.core_perf->emplace_back(), kCoreFields);
      }
    }
  }
  return true;
}

/// Writes `objects` as a JSON array, one object per line.
void write_json_array(std::ostream& os,
                      const std::vector<std::string>& objects) {
  os << "[\n";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    os << "  " << objects[i] << (i + 1 < objects.size() ? "," : "") << '\n';
  }
  os << "]\n";
}

/// Installs a watchdog hook on a System for one scope and clears it on
/// every exit path (return, RunInterrupted or any other throw).
class ScopedInterrupt {
 public:
  ScopedInterrupt(System& system, std::function<bool()> hook)
      : system_(system), hook_(std::move(hook)) {
    swap();
  }
  ~ScopedInterrupt() { swap(); }
  ScopedInterrupt(const ScopedInterrupt&) = delete;
  ScopedInterrupt& operator=(const ScopedInterrupt&) = delete;

 private:
  // Installs hook_ and leaves it empty, so the second call clears.
  void swap() { system_.set_interrupt(std::exchange(hook_, nullptr)); }

  System& system_;
  std::function<bool()> hook_;
};

/// Runs one cell under the per-attempt soft deadline. Each retry re-arms
/// the clock and, when snapshots are configured, resumes from the snapshot
/// the interrupted attempt committed last. Exhausted retries return
/// `placeholder()`, so the sweep degrades gracefully instead of hanging.
template <class Run, class Placeholder>
auto with_watchdog(System& system, const RunMatrixOptions& opts, Run run,
                   Placeholder placeholder) {
  if (opts.cell_timeout_s <= 0) return run();
  prof::Stopwatch clock;
  const ScopedInterrupt armed(system, [&clock, limit = opts.cell_timeout_s] {
    return clock.seconds() > limit;
  });
  const u32 attempts = 1 + opts.cell_retries;
  for (u32 a = 0; a < attempts; ++a) {
    clock.restart();
    try {
      return run();
    } catch (const RunInterrupted&) {
      if (a + 1 < attempts) system.allow_restore_once();
    }
  }
  return placeholder();
}

/// The journaled row that restores the cell `key` names (its design,
/// workload and, for a mix co-run, a core_perf), or nullptr.
const RunResult* journaled(const RunMatrixOptions& opts,
                           const RunResult& key) {
  return opts.resume ? opts.resume->find(key.design, key.workload,
                                         key.core_perf != nullptr)
                     : nullptr;
}

/// The one ordered matrix driver behind every matrix. Each of the `n`
/// cells, in matrix order, is skipped once `opts.cancel` has returned
/// true; otherwise it is restored when the journal holds the cell `key(i)`
/// names, or simulated as `run(system, i)` under the watchdog on a System
/// private to the worker (built from `cfg` on first use). A cell that runs
/// out of retries commits `key(i)` marked timed_out. Finished cells commit
/// strictly in index order under one lock — fresh ones through
/// opts.on_result, then every one onto `results` — and the first skipped
/// cell ends the commits, so the committed cells are always a matrix-order
/// prefix (cells already running when the cancel lands still finish and
/// commit). One job runs the same steps inline on the calling thread.
template <class Key, class Run>
void run_ordered(std::size_t n, const SystemConfig& cfg,
                 const RunMatrixOptions& opts, const char* unit, Key key,
                 Run run, std::vector<RunResult>& results) {
  if (n == 0) return;
  const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
      opts.jobs ? opts.jobs : ThreadPool::default_concurrency(), n));

  struct Slot {
    std::optional<RunResult> cell;  ///< empty: skipped after a cancel
    bool restored = false;
    bool finished = false;
  };
  std::vector<Slot> slots(n);
  std::vector<std::unique_ptr<System>> systems(jobs);
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::size_t next = 0;
  std::size_t done = 0;
  // Progress/ETA on the host clock via bb::prof (the single sanctioned
  // wall-clock site), rate-limited to >=1s between prints so tiny cells
  // don't flood stderr; the final (done == n) line always prints.
  const prof::Stopwatch stopwatch;
  double last_report_s = -1.0;

  const auto step = [&](std::size_t i, unsigned worker) {
    Slot slot;
    if (cancelled || (opts.cancel && opts.cancel())) {
      cancelled = true;
    } else if (const RunResult* prior =
                   opts.resume ? journaled(opts, key(i)) : nullptr) {
      slot.cell = *prior;
      slot.restored = true;
    } else {
      std::unique_ptr<System>& system = systems[worker];
      if (!system) system = std::make_unique<System>(cfg);
      slot.cell = with_watchdog(
          *system, opts, [&] { return run(*system, i); },
          [&] {
            RunResult placeholder = key(i);
            placeholder.timed_out = true;
            return placeholder;
          });
    }
    slot.finished = true;

    std::lock_guard<std::mutex> lk(mu);
    slots[i] = std::move(slot);
    if (slots[i].cell && opts.progress) {
      const double elapsed = stopwatch.seconds();
      if (++done == n || last_report_s < 0.0 ||
          elapsed - last_report_s >= 1.0) {
        last_report_s = elapsed;
        std::fprintf(stderr,
                     "[matrix] %zu/%zu %s, %.1fs elapsed, ETA %.1fs\n", done,
                     n, unit, elapsed,
                     elapsed / static_cast<double>(done) *
                         static_cast<double>(n - done));
      }
    }
    while (next < n && slots[next].finished) {
      Slot& s = slots[next];
      if (!s.cell) {
        next = n;  // the first skipped cell ends the prefix
        break;
      }
      if (!s.restored && opts.on_result) opts.on_result(*s.cell);
      results.push_back(std::move(*s.cell));
      s.cell.reset();
      ++next;
    }
  };

  if (jobs == 1) {
    for (std::size_t i = 0; i < n; ++i) step(i, 0);
    return;
  }
  ThreadPool pool(jobs);
  pool.parallel_for(n, step);
}

/// The miss streams of one matrix: per workload, one trace::SharedStream
/// per core lane, made when the workload's first cell opens them and read
/// by each of its `readers[w]` cells. Each stream frees its chunks and its
/// generator once its last reader is done; only the empty stream objects
/// wait for the matrix to end.
class MatrixStreams {
 public:
  using Cursors = std::vector<std::unique_ptr<trace::SharedStream::Cursor>>;

  MatrixStreams(const SystemConfig& cfg,
                const std::vector<trace::WorkloadProfile>& workloads,
                std::vector<u32> readers)
      : cfg_(cfg),
        workloads_(workloads),
        readers_(std::move(readers)),
        streams_(workloads.size()) {}

  /// One reader's cursors over workload `w`'s lanes, in lane order.
  Cursors open(std::size_t w) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& lanes = streams_[w];
    if (lanes.empty()) {
      for (const CoreLane& lane : CoreModel::homogeneous_lanes(
               workloads_[w], cfg_.seed, cfg_.core.cores)) {
        lanes.push_back(std::make_unique<trace::SharedStream>(
            lane.profile, lane.seed, readers_[w]));
      }
    }
    Cursors out;
    for (const auto& stream : lanes) out.push_back(stream->open());
    return out;
  }

 private:
  const SystemConfig& cfg_;
  const std::vector<trace::WorkloadProfile>& workloads_;
  const std::vector<u32> readers_;
  std::mutex mu_;
  std::vector<std::vector<std::unique_ptr<trace::SharedStream>>> streams_;
};

}  // namespace

ResultJournal::ResultJournal(std::string sweep) : sweep_(std::move(sweep)) {}

std::string ResultJournal::header() const {
  return "{\"sweep\":\"" + sweep_ + "\"}";
}

ResultJournal::LoadStats ResultJournal::load_stats(
    std::istream& is, std::vector<std::string>* well_formed) {
  LoadStats st;
  std::string line_text;
  while (std::getline(is, line_text)) {
    if (line_text.empty()) continue;
    if (!sweep_.empty() && !st.header) {
      if (line_text != header()) {
        st.foreign = true;
        return st;
      }
      st.header = true;
      if (well_formed != nullptr) well_formed->push_back(line_text);
      continue;
    }
    JsonValue v;
    RunResult r;
    if (!json_parse(line_text, v) || !v.is_object() ||
        v.find("kind") != nullptr || !parse_run(v, r)) {
      ++st.malformed;
      continue;
    }
    rows_.push_back(std::move(r));
    if (well_formed != nullptr) well_formed->push_back(line_text);
    ++st.restored;
  }
  return st;
}

const RunResult* ResultJournal::find(const std::string& design,
                                     const std::string& workload,
                                     bool co_run) const {
  // The last match wins: a journal that records a cell twice (a rerun
  // after a partial resume) restores the later line.
  const auto it = std::find_if(rows_.rbegin(), rows_.rend(),
                               [&](const RunResult& r) {
                                 return r.design == design &&
                                        r.workload == workload &&
                                        (r.core_perf != nullptr) == co_run &&
                                        !r.timed_out;
                               });
  return it == rows_.rend() ? nullptr : &*it;
}

std::string ResultJournal::line(const RunResult& r) {
  return to_json(r, nonzero_groups(r));
}

std::string sweep_hash(const SystemConfig& cfg, const RunMatrixOptions& opts) {
  std::ostringstream key;
  key.precision(std::numeric_limits<double>::max_digits10);
  key << cfg.seed << '|' << cfg.warmup_ratio << '|' << config_fingerprint(cfg)
      << opts.instructions << '|' << opts.target_misses << '|'
      << opts.min_instructions << '|' << opts.max_instructions;
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char ch : key.str()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

std::string quarantine_name(const std::string& path) {
  std::string candidate = path + ".corrupt";
  for (u64 n = 1; snap::file_exists(candidate); ++n) {
    candidate = path + ".corrupt." + std::to_string(n);
  }
  return candidate;
}

ExperimentRunner::ExperimentRunner(SystemConfig cfg) : cfg_(std::move(cfg)) {}

void ExperimentRunner::run_matrix(
    const std::vector<std::string>& designs,
    const std::vector<trace::WorkloadProfile>& workloads,
    const RunMatrixOptions& opts) {
  run_cells(designs, workloads,
            [&designs](System& system, std::size_t d,
                       const trace::WorkloadProfile& w, u64 instr,
                       const LaneSources& lanes) {
              return system.run(designs[d], w, instr, lanes);
            },
            opts, /*share_streams=*/true);
}

void ExperimentRunner::run_replay_matrix(
    const std::vector<std::string>& designs,
    const ReplayMatrixOptions& replay, const RunMatrixOptions& opts) {
  if (opts.instructions == 0) {
    throw std::invalid_argument(
        "trace replay requires an explicit instruction budget "
        "(use trace_info().inst_gap_total for one full pass)");
  }
  // Validate the structure once up front so malformed files fail with a
  // clean diagnostic here, not from a worker thread mid-matrix.
  (void)trace::trace_info(replay.path);

  // The pseudo-workload only labels the result rows; its profile fields
  // are never consulted because opts.instructions is mandatory.
  trace::WorkloadProfile label;
  label.name = replay.label.empty() ? replay.path : replay.label;

  // Each cell opens its own reader, so workers never share file offsets
  // and every replay starts from record zero.
  run_cells(designs, {label},
            [&](System& system, std::size_t d,
                const trace::WorkloadProfile& w, u64 instr,
                const LaneSources&) {
              trace::StreamingTraceReader reader(replay.path);
              return system.run_replay(designs[d], reader, w.name, instr);
            },
            opts, /*share_streams=*/false);
}

void ExperimentRunner::run_bumblebee_matrix(
    const std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>>&
        configs,
    const std::vector<trace::WorkloadProfile>& workloads,
    const RunMatrixOptions& opts) {
  std::vector<std::string> labels;
  for (const auto& [label, cfg] : configs) labels.push_back(label);
  run_cells(labels, workloads,
            [&configs](System& system, std::size_t d,
                       const trace::WorkloadProfile& w, u64 instr,
                       const LaneSources& lanes) {
              // The label names the controller, so each point gets its
              // own snapshot file.
              bumblebee::BumblebeeConfig cfg = configs[d].second;
              cfg.variant_name = configs[d].first;
              return system.run_bumblebee(cfg, w, instr, lanes);
            },
            opts, /*share_streams=*/true);
}

void ExperimentRunner::run_cells(
    const std::vector<std::string>& designs,
    const std::vector<trace::WorkloadProfile>& workloads, const CellFn& cell,
    const RunMatrixOptions& opts, bool share_streams) {
  // Cells run workload-major, design-minor.
  const std::size_t n_designs = designs.size();
  const std::size_t n = n_designs * workloads.size();
  const auto key = [&](std::size_t i) {
    RunResult r;
    r.design = designs[i % n_designs];
    r.workload = workloads[i / n_designs].name;
    return r;
  };
  // A shared stream cannot rewind, so cells that may restart or restore a
  // run mid-stream (snapshots, watchdog retries) keep private generators,
  // as do captures, whose sink must see each cell's own generation.
  std::optional<MatrixStreams> streams;
  if (share_streams && !cfg_.snapshot.configured() &&
      cfg_.capture == nullptr && opts.cell_timeout_s <= 0) {
    // A journaled cell is restored, not simulated, so it reads no stream.
    std::vector<u32> readers(workloads.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (journaled(opts, key(i)) == nullptr) ++readers[i / n_designs];
    }
    streams.emplace(cfg_, workloads, std::move(readers));
  }
  run_ordered(
      n, cfg_, opts, "cells", key,
      [&](System& system, std::size_t i) {
        const trace::WorkloadProfile& w = workloads[i / n_designs];
        // The cursors close when the cell returns or throws, so each cell
        // releases its share of the streams exactly once.
        const MatrixStreams::Cursors cursors =
            streams ? streams->open(i / n_designs) : MatrixStreams::Cursors{};
        LaneSources lanes;
        for (const auto& c : cursors) lanes.push_back(c.get());
        return cell(system, i % n_designs, w,
                    opts.instructions
                        ? opts.instructions
                        : default_instructions_for(w, opts.target_misses,
                                                   opts.min_instructions,
                                                   opts.max_instructions),
                    lanes);
      },
      results_);
}

void ExperimentRunner::run_mix_matrix(const std::vector<std::string>& designs,
                                      const std::vector<MixSpec>& mixes,
                                      const RunMatrixOptions& opts) {
  if (designs.empty() || mixes.empty()) return;

  // Every workload named by any mix, in first-seen order, and one shared
  // per-core budget for the alone and co-run phases, so every speedup
  // compares equal-length slices of the same instruction stream.
  std::vector<trace::WorkloadProfile> uniq;
  u64 budget = opts.instructions;
  for (const auto& m : mixes) {
    for (const auto& w : m.workloads) {
      if (std::any_of(uniq.begin(), uniq.end(),
                      [&](const auto& u) { return u.name == w; })) {
        continue;
      }
      uniq.push_back(trace::WorkloadProfile::by_name(w));
      if (opts.instructions) continue;
      budget = std::max(budget, default_instructions_for(
                                    uniq.back(), opts.target_misses,
                                    opts.min_instructions,
                                    opts.max_instructions));
    }
  }

  // Phase 1: alone baselines, one core with observability off (they feed
  // only the speedup denominators; their artifacts are never exported). A
  // --capture-trace sink records the *co-run* miss stream only; letting
  // the baselines append too would interleave several runs' records.
  SystemConfig alone_cfg = cfg_;
  alone_cfg.core.cores = 1;
  alone_cfg.obs = ObservabilityConfig{};
  alone_cfg.capture = nullptr;
  ExperimentRunner alone(alone_cfg);
  RunMatrixOptions alone_opts = opts;
  alone_opts.instructions = budget;
  alone.run_matrix(designs, uniq, alone_opts);
  // A cancelled sweep stops at its baselines' committed prefix.
  if (alone.results().size() < designs.size() * uniq.size()) return;

  // Phase 2: co-runs, mix-major and design-minor.
  const std::size_t n_designs = designs.size();
  run_ordered(
      mixes.size() * n_designs, cfg_, opts, "mix co-runs",
      [&](std::size_t i) {
        RunResult r;
        r.design = designs[i % n_designs];
        r.workload = mixes[i / n_designs].name;
        r.core_perf = std::make_shared<std::vector<CorePerf>>();
        return r;
      },
      [&](System& system, std::size_t i) {
        return run_mix_cell(system, designs[i % n_designs],
                            mixes[i / n_designs], budget, alone.results());
      },
      results_);
}

void ExperimentRunner::write_mix_csv(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  std::vector<std::string> header;
  append_keys(header, kMixKeys, kBase);
  append_keys(header, kCoreFields, kBase);
  append_keys(header, kMixScores, kMix);
  TextTable t(std::move(header));
  for (const auto& r : results_) {
    if (!r.core_perf) continue;
    for (const auto& c : *r.core_perf) {
      std::vector<std::string> row;
      append_cells(row, r, kMixKeys, kBase);
      append_cells(row, c, kCoreFields, kBase);
      append_cells(row, r, kMixScores, kMix);
      t.add_row(std::move(row));
    }
  }
  t.print_csv(os);
}

void ExperimentRunner::write_mix_json(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  const unsigned groups = column_groups(cfg_, results_);
  std::vector<std::string> objects;
  for (const auto& r : results_) {
    if (r.core_perf) objects.push_back(to_mix_json(r, groups));
  }
  write_json_array(os, objects);
}

std::vector<RunResult> ExperimentRunner::for_design(
    const std::string& design) const {
  std::vector<RunResult> out;
  for (const auto& r : results_) {
    if (r.design == design) out.push_back(r);
  }
  return out;
}

std::vector<std::pair<std::string, double>> ExperimentRunner::normalized(
    const std::string& design, const std::string& baseline_design,
    double (*metric)(const RunResult&)) const {
  std::map<std::string, double> base;
  for (const auto& r : results_) {
    if (r.design == baseline_design) base[r.workload] = metric(r);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& r : results_) {
    if (r.design != design) continue;
    const auto it = base.find(r.workload);
    if (it == base.end() || it->second <= 0) continue;
    out.emplace_back(r.workload, metric(r) / it->second);
  }
  return out;
}

void ExperimentRunner::write_csv(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  const unsigned groups = column_groups(cfg_, results_);
  std::vector<std::string> header;
  append_keys(header, kRunFields, groups);
  TextTable t(std::move(header));
  for (const auto& r : results_) {
    std::vector<std::string> row;
    append_cells(row, r, kRunFields, groups);
    t.add_row(std::move(row));
  }
  t.print_csv(os);
}

void ExperimentRunner::write_json(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  const unsigned groups = column_groups(cfg_, results_);
  std::vector<std::string> objects;
  for (const auto& r : results_) objects.push_back(to_json(r, groups));
  write_json_array(os, objects);
}

void ExperimentRunner::write_json(std::ostream& os,
                                  const prof::HostReport& host) const {
  os << "{\n\"runs\":\n";
  write_json(os);
  os << ",\n\"host\": " << prof::host_report_to_json(host) << "\n}\n";
}

void ExperimentRunner::write_mix_json(std::ostream& os,
                                      const prof::HostReport& host) const {
  os << "{\n\"runs\":\n";
  write_mix_json(os);
  os << ",\n\"host\": " << prof::host_report_to_json(host) << "\n}\n";
}

void ExperimentRunner::write_epoch_csv(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  // Union of all runs' metric columns, in first-seen (matrix) order, so
  // mixed matrices (e.g. DRAM-only next to Bumblebee, which adds remap
  // metrics) share one header.
  std::vector<std::string> columns;
  for (const auto& r : results_) {
    if (!r.artifacts) continue;
    for (const auto& name : r.artifacts->epoch_columns) {
      if (std::find(columns.begin(), columns.end(), name) == columns.end()) {
        columns.push_back(name);
      }
    }
  }
  write_epoch_csv_header(os, {kDesign, kWorkload}, columns);
  for (const auto& r : results_) {
    if (!r.artifacts) continue;
    write_epoch_csv_rows(os, {r.design, r.workload},
                         r.artifacts->epoch_columns, columns,
                         r.artifacts->epochs);
  }
}

void ExperimentRunner::write_trace(std::ostream& os,
                                   TraceFormat format) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  if (format == TraceFormat::kJsonl) {
    for (const auto& r : results_) {
      if (!r.artifacts) continue;
      std::string extra;
      append_member(extra, kDesign, format_value(r.design));
      append_member(extra, kWorkload, format_value(r.workload));
      write_trace_jsonl(r.artifacts->events, os, extra);
    }
    return;
  }
  // Chrome trace_event: one process per run so Perfetto shows each
  // (design, workload) cell as its own named track.
  write_trace_chrome_header(os);
  bool first = true;
  u64 pid = 0;
  for (const auto& r : results_) {
    if (!r.artifacts) continue;
    write_trace_chrome_events(r.artifacts->events, os, pid,
                              r.design + " / " + r.workload, first);
    ++pid;
  }
  write_trace_chrome_footer(os);
}

}  // namespace bb::sim
