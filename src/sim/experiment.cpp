#include "sim/experiment.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "common/json.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "trace/stream.h"
#include "trace/trace_file.h"

namespace bb::sim {

namespace {

void append_class_object(std::string& out,
                         const std::array<u64, mem::kTrafficClassCount>&
                             bytes) {
  out += '{';
  for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
    if (c) out += ',';
    out += '"';
    out += mem::to_string(static_cast<mem::TrafficClass>(c));
    out += "\":";
    out += std::to_string(bytes[c]);
  }
  out += '}';
}

/// True when any reliability counter of the run is nonzero (only possible
/// with fault injection enabled).
bool has_fault_fields(const RunResult& r) {
  return r.ce_count || r.ue_count || r.due_retries || r.due_unrecovered ||
         r.due_data_loss || r.retired_rows || r.retired_frames ||
         r.degraded_sets;
}

/// True when any request-queue stat of the run is nonzero (only possible
/// with the queue layer enabled).
bool has_queue_fields(const RunResult& r) {
  return r.queueing_latency_avg != 0 || r.read_queue_latency_avg != 0 ||
         r.req_queue_length_avg != 0 || r.write_drain_count != 0;
}

/// True when any row of the sweep is a watchdog placeholder — gates the
/// timed_out column so deadline-free outputs keep their historical shape.
bool any_timed_out(const std::vector<RunResult>& results) {
  return std::any_of(results.begin(), results.end(),
                     [](const RunResult& r) { return r.timed_out; });
}

/// One result as a single-line JSON object — the element format of
/// write_json and the line format of the checkpoint journal. The
/// reliability and request-queue fields are emitted only on request so
/// legacy outputs stay byte-identical to their earlier forms.
std::string result_to_json(const RunResult& r, bool include_fault,
                           bool include_queue, bool include_timeout) {
  std::string out = "{";
  out += "\"design\":\"" + json_escape(r.design) + "\",";
  out += "\"workload\":\"" + json_escape(r.workload) + "\",";
  out += "\"instructions\":" + std::to_string(r.instructions) + ',';
  out += "\"misses\":" + std::to_string(r.misses) + ',';
  out += "\"ipc\":" + json_double(r.ipc) + ',';
  out += "\"hbm_bytes\":" + std::to_string(r.hbm_bytes) + ',';
  out += "\"dram_bytes\":" + std::to_string(r.dram_bytes) + ',';
  out += "\"energy_mj\":" + json_double(r.energy_mj) + ',';
  out += "\"hbm_serve_rate\":" + json_double(r.hbm_serve_rate) + ',';
  out += "\"mean_latency_ns\":" + json_double(r.mean_latency_ns) + ',';
  out += "\"latency_p50_ns\":" + json_double(r.latency_p50_ns) + ',';
  out += "\"latency_p90_ns\":" + json_double(r.latency_p90_ns) + ',';
  out += "\"latency_p99_ns\":" + json_double(r.latency_p99_ns) + ',';
  out += "\"latency_p999_ns\":" + json_double(r.latency_p999_ns) + ',';
  out += "\"mal_fraction\":" + json_double(r.mal_fraction) + ',';
  out += "\"overfetch\":" + json_double(r.overfetch) + ',';
  out += "\"page_faults\":" + std::to_string(r.page_faults) + ',';
  out += "\"metadata_sram_bytes\":" + std::to_string(r.metadata_sram_bytes) +
         ',';
  if (include_fault) {
    out += "\"ce_count\":" + std::to_string(r.ce_count) + ',';
    out += "\"ue_count\":" + std::to_string(r.ue_count) + ',';
    out += "\"due_retries\":" + std::to_string(r.due_retries) + ',';
    out += "\"due_unrecovered\":" + std::to_string(r.due_unrecovered) + ',';
    out += "\"due_data_loss\":" + std::to_string(r.due_data_loss) + ',';
    out += "\"retired_rows\":" + std::to_string(r.retired_rows) + ',';
    out += "\"retired_frames\":" + std::to_string(r.retired_frames) + ',';
    out += "\"degraded_sets\":" + std::to_string(r.degraded_sets) + ',';
  }
  if (include_queue) {
    out += "\"queueing_latency_avg\":" + json_double(r.queueing_latency_avg) +
           ',';
    out += "\"read_queue_latency_avg\":" +
           json_double(r.read_queue_latency_avg) + ',';
    out += "\"req_queue_length_avg\":" + json_double(r.req_queue_length_avg) +
           ',';
    out += "\"write_drain_count\":" + std::to_string(r.write_drain_count) +
           ',';
  }
  if (include_timeout) {
    out += "\"timed_out\":" + std::to_string(r.timed_out ? 1 : 0) + ',';
  }
  out += "\"hbm_class_bytes\":";
  append_class_object(out, r.hbm_class_bytes);
  out += ",\"dram_class_bytes\":";
  append_class_object(out, r.dram_class_bytes);
  out += '}';
  return out;
}

/// Parses a RunResult object (journal "run" line or a mix line's
/// "aggregate"). Returns false when the identifying keys are missing.
bool parse_run_result(const JsonValue& v, RunResult& r) {
  r.design = v.get_string("design");
  r.workload = v.get_string("workload");
  if (r.design.empty() || r.workload.empty()) return false;
  r.instructions = static_cast<u64>(v.get_number("instructions"));
  r.misses = static_cast<u64>(v.get_number("misses"));
  r.ipc = v.get_number("ipc");
  r.hbm_bytes = static_cast<u64>(v.get_number("hbm_bytes"));
  r.dram_bytes = static_cast<u64>(v.get_number("dram_bytes"));
  r.energy_mj = v.get_number("energy_mj");
  r.hbm_serve_rate = v.get_number("hbm_serve_rate");
  r.mean_latency_ns = v.get_number("mean_latency_ns");
  r.latency_p50_ns = v.get_number("latency_p50_ns");
  r.latency_p90_ns = v.get_number("latency_p90_ns");
  r.latency_p99_ns = v.get_number("latency_p99_ns");
  r.latency_p999_ns = v.get_number("latency_p999_ns");
  r.mal_fraction = v.get_number("mal_fraction");
  r.overfetch = v.get_number("overfetch");
  r.page_faults = static_cast<u64>(v.get_number("page_faults"));
  r.metadata_sram_bytes =
      static_cast<u64>(v.get_number("metadata_sram_bytes"));
  r.ce_count = static_cast<u64>(v.get_number("ce_count"));
  r.ue_count = static_cast<u64>(v.get_number("ue_count"));
  r.due_retries = static_cast<u64>(v.get_number("due_retries"));
  r.due_unrecovered = static_cast<u64>(v.get_number("due_unrecovered"));
  r.due_data_loss = static_cast<u64>(v.get_number("due_data_loss"));
  r.retired_rows = static_cast<u64>(v.get_number("retired_rows"));
  r.retired_frames = static_cast<u64>(v.get_number("retired_frames"));
  r.degraded_sets = static_cast<u64>(v.get_number("degraded_sets"));
  r.queueing_latency_avg = v.get_number("queueing_latency_avg");
  r.read_queue_latency_avg = v.get_number("read_queue_latency_avg");
  r.req_queue_length_avg = v.get_number("req_queue_length_avg");
  r.write_drain_count = static_cast<u64>(v.get_number("write_drain_count"));
  r.timed_out = v.get_number("timed_out") != 0;
  const auto load_classes =
      [&v](const char* key, std::array<u64, mem::kTrafficClassCount>& out) {
        const JsonValue* obj = v.find(key);
        if (!obj || !obj->is_object()) return;
        for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
          out[c] = static_cast<u64>(obj->get_number(
              mem::to_string(static_cast<mem::TrafficClass>(c))));
        }
      };
  load_classes("hbm_class_bytes", r.hbm_class_bytes);
  load_classes("dram_class_bytes", r.dram_class_bytes);
  return true;
}

/// One MixResult as a single-line JSON object — the element format of
/// write_mix_json and the "mix" journal line (minus the kind key).
std::string mix_result_to_json(const MixResult& r, bool include_fault,
                               bool include_queue, bool include_timeout) {
  std::string out = "{\"design\":\"" + json_escape(r.design) +
                    "\",\"mix\":\"" + json_escape(r.mix) +
                    "\",\"weighted_speedup\":" +
                    json_double(r.weighted_speedup) +
                    ",\"hmean_speedup\":" + json_double(r.hmean_speedup) +
                    ",\"max_slowdown\":" + json_double(r.max_slowdown) +
                    ",\"aggregate\":" +
                    result_to_json(r.aggregate, include_fault,
                                   include_queue, include_timeout) +
                    ",\"cores\":[";
  for (std::size_t c = 0; c < r.cores.size(); ++c) {
    const MixCoreResult& core = r.cores[c];
    if (c) out += ',';
    out += "{\"core\":" + std::to_string(core.perf.core) +
           ",\"workload\":\"" + json_escape(core.perf.workload) +
           "\",\"instructions\":" + std::to_string(core.perf.instructions) +
           ",\"misses\":" + std::to_string(core.perf.misses) +
           ",\"ipc\":" + json_double(core.perf.ipc) +
           ",\"alone_ipc\":" + json_double(core.alone_ipc) +
           ",\"speedup\":" + json_double(core.speedup) +
           ",\"hbm_serve_rate\":" + json_double(core.perf.hbm_serve_rate) +
           ",\"mean_latency_ns\":" + json_double(core.perf.mean_latency_ns) +
           ",\"latency_p50_ns\":" + json_double(core.perf.latency_p50_ns) +
           ",\"latency_p99_ns\":" + json_double(core.perf.latency_p99_ns) +
           ",\"hbm_bytes\":" + std::to_string(core.perf.hbm_bytes) +
           ",\"dram_bytes\":" + std::to_string(core.perf.dram_bytes) + '}';
  }
  out += "]}";
  return out;
}

}  // namespace

ResultJournal::LoadStats ResultJournal::load_stats(
    std::istream& is, std::vector<std::string>* well_formed) {
  LoadStats st;
  std::string line_text;
  while (std::getline(is, line_text)) {
    if (line_text.empty()) continue;
    JsonValue v;
    if (!json_parse(line_text, v) || !v.is_object()) {
      ++st.malformed;
      continue;
    }
    const std::string kind = v.get_string("kind", "run");
    if (kind == "run") {
      RunResult r;
      if (!parse_run_result(v, r)) {
        ++st.malformed;
        continue;
      }
      rows_.push_back(std::move(r));
    } else if (kind == "alone") {
      AloneRow a;
      a.design = v.get_string("design");
      a.workload = v.get_string("workload");
      a.ipc = v.get_number("ipc");
      if (a.design.empty() || a.workload.empty()) {
        ++st.malformed;
        continue;
      }
      alone_rows_.push_back(std::move(a));
    } else if (kind == "mix") {
      MixResult m;
      m.design = v.get_string("design");
      m.mix = v.get_string("mix");
      if (m.design.empty() || m.mix.empty()) {
        ++st.malformed;
        continue;
      }
      m.weighted_speedup = v.get_number("weighted_speedup");
      m.hmean_speedup = v.get_number("hmean_speedup");
      m.max_slowdown = v.get_number("max_slowdown");
      const JsonValue* agg = v.find("aggregate");
      if (!agg || !agg->is_object() || !parse_run_result(*agg, m.aggregate)) {
        ++st.malformed;
        continue;
      }
      if (const JsonValue* cores = v.find("cores");
          cores && cores->type == JsonValue::Type::kArray) {
        for (const JsonValue& cv : cores->array) {
          if (!cv.is_object()) continue;
          MixCoreResult core;
          core.perf.core = static_cast<u32>(cv.get_number("core"));
          core.perf.workload = cv.get_string("workload");
          core.perf.instructions =
              static_cast<u64>(cv.get_number("instructions"));
          core.perf.misses = static_cast<u64>(cv.get_number("misses"));
          core.perf.ipc = cv.get_number("ipc");
          core.alone_ipc = cv.get_number("alone_ipc");
          core.speedup = cv.get_number("speedup");
          core.perf.hbm_serve_rate = cv.get_number("hbm_serve_rate");
          core.perf.mean_latency_ns = cv.get_number("mean_latency_ns");
          core.perf.latency_p50_ns = cv.get_number("latency_p50_ns");
          core.perf.latency_p99_ns = cv.get_number("latency_p99_ns");
          core.perf.hbm_bytes = static_cast<u64>(cv.get_number("hbm_bytes"));
          core.perf.dram_bytes =
              static_cast<u64>(cv.get_number("dram_bytes"));
          m.cores.push_back(std::move(core));
        }
      }
      mix_rows_.push_back(std::move(m));
    } else {
      ++st.malformed;
      continue;
    }
    if (well_formed != nullptr) well_formed->push_back(line_text);
    ++st.restored;
  }
  return st;
}

const RunResult* ResultJournal::find(const std::string& design,
                                     const std::string& workload) const {
  // Last line wins, in case an interrupted run journaled a cell twice.
  // Watchdog placeholders are never restored: a resumed sweep (typically
  // with a longer deadline or a snapshot to pick up from) retries them.
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->design == design && it->workload == workload) {
      if (it->timed_out) continue;
      return &*it;
    }
  }
  return nullptr;
}

const double* ResultJournal::find_alone(const std::string& design,
                                        const std::string& workload) const {
  for (auto it = alone_rows_.rbegin(); it != alone_rows_.rend(); ++it) {
    if (it->design == design && it->workload == workload) return &it->ipc;
  }
  return nullptr;
}

const MixResult* ResultJournal::find_mix(const std::string& design,
                                         const std::string& mix) const {
  for (auto it = mix_rows_.rbegin(); it != mix_rows_.rend(); ++it) {
    if (it->design == design && it->mix == mix) {
      if (it->aggregate.timed_out) continue;
      return &*it;
    }
  }
  return nullptr;
}

std::string ResultJournal::line(const RunResult& r) {
  return result_to_json(r, has_fault_fields(r), has_queue_fields(r),
                        r.timed_out);
}

std::string ResultJournal::alone_line(const std::string& design,
                                      const std::string& workload,
                                      double ipc) {
  return "{\"kind\":\"alone\",\"design\":\"" + json_escape(design) +
         "\",\"workload\":\"" + json_escape(workload) +
         "\",\"ipc\":" + json_double(ipc) + '}';
}

std::string ResultJournal::mix_line(const MixResult& r) {
  std::string out = "{\"kind\":\"mix\",";
  // Splice the kind key into the shared mix-object serialization.
  out += mix_result_to_json(r, has_fault_fields(r.aggregate),
                            has_queue_fields(r.aggregate),
                            r.aggregate.timed_out)
             .substr(1);
  return out;
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
  run_cells(
      designs.size(), workloads,
      [&designs](System& system, std::size_t d,
                 const trace::WorkloadProfile& w, u64 instr) {
        return system.run(designs[d], w, instr);
      },
      [&designs](std::size_t d) { return designs[d]; }, opts);
}

void ExperimentRunner::run_replay_matrix(
    const std::vector<std::string>& designs,
    const ReplayMatrixOptions& replay, const RunMatrixOptions& opts) {
  if (opts.instructions == 0) {
    throw std::invalid_argument(
        "trace replay requires an explicit instruction budget "
        "(use trace_info().inst_gap_total for one full pass)");
  }
  const trace::TraceReaderOptions reader_opts{replay.v1_chunk_records};
  // Validate the structure once up front so malformed files fail with a
  // clean diagnostic here, not from a worker thread mid-matrix.
  (void)trace::trace_info(replay.path, reader_opts);

  // The pseudo-workload only labels the result rows; its profile fields
  // are never consulted because opts.instructions is mandatory.
  trace::WorkloadProfile label;
  label.name = replay.label.empty() ? replay.path : replay.label;
  const std::vector<trace::WorkloadProfile> workloads{label};

  if (replay.streaming) {
    run_cells(
        designs.size(), workloads,
        [&designs, &replay, &reader_opts](System& system, std::size_t d,
                                          const trace::WorkloadProfile& w,
                                          u64 instr) {
          // Each cell opens its own reader: workers never share file
          // offsets, and every replay starts from record zero.
          trace::StreamingTraceReader reader(replay.path, reader_opts);
          return system.run_replay(designs[d], reader, w.name, instr);
        },
        [&designs](std::size_t d) { return designs[d]; }, opts);
    return;
  }
  // Memory mode: load once, replay per cell from a private cursor.
  const auto records = std::make_shared<const std::vector<trace::TraceRecord>>(
      trace::read_trace(replay.path));
  run_cells(
      designs.size(), workloads,
      [&designs, records](System& system, std::size_t d,
                          const trace::WorkloadProfile& w, u64 instr) {
        trace::TraceReplayer replayer(*records);
        return system.run_replay(designs[d], replayer, w.name, instr);
      },
      [&designs](std::size_t d) { return designs[d]; }, opts);
}

void ExperimentRunner::run_bumblebee_matrix(
    const std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>>&
        configs,
    const std::vector<trace::WorkloadProfile>& workloads,
    const RunMatrixOptions& opts) {
  run_cells(
      configs.size(), workloads,
      [&configs](System& system, std::size_t d,
                 const trace::WorkloadProfile& w, u64 instr) {
        RunResult r = system.run_bumblebee(configs[d].second, w, instr);
        r.design = configs[d].first;
        return r;
      },
      [&configs](std::size_t d) { return configs[d].first; }, opts);
}

void ExperimentRunner::run_cells(
    std::size_t n_designs, const std::vector<trace::WorkloadProfile>& workloads,
    const CellFn& cell, const DesignNameFn& design_name,
    const RunMatrixOptions& opts) {
  const std::size_t total = n_designs * workloads.size();
  if (total == 0) return;

  // Resume: cells present in the journal are restored, not re-simulated.
  // on_result is skipped for them (they are already journaled).
  auto restored_cell = [&](std::size_t d,
                           std::size_t w) -> const RunResult* {
    if (!opts.resume) return nullptr;
    return opts.resume->find(design_name(d), workloads[w].name);
  };

  std::vector<u64> instr(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    instr[i] = opts.instructions
                   ? opts.instructions
                   : default_instructions_for(workloads[i], opts.target_misses,
                                              opts.min_instructions,
                                              opts.max_instructions);
  }

  // Progress/ETA on the host clock via bb::prof (the single sanctioned
  // wall-clock site), rate-limited to >=1s between prints so tiny cells
  // don't flood stderr; the final (done == total) line always prints.
  const prof::Stopwatch stopwatch;
  double last_report_s = -1.0;
  auto report = [&](std::size_t done) {
    const double elapsed = stopwatch.seconds();
    if (done < total && last_report_s >= 0.0 &&
        elapsed - last_report_s < 1.0) {
      return;
    }
    last_report_s = elapsed;
    const double eta =
        done ? elapsed / static_cast<double>(done) *
                   static_cast<double>(total - done)
             : 0.0;
    std::fprintf(stderr, "[matrix] %zu/%zu cells, %.1fs elapsed, ETA %.1fs\n",
                 done, total, elapsed, eta);
  };

  // Watchdog: runs one cell under the per-attempt soft deadline. Each
  // retry re-arms the clock and (when snapshots are configured) resumes
  // from the snapshot the interrupted attempt committed last; exhausted
  // retries commit a timed_out placeholder row so the sweep degrades
  // gracefully instead of hanging.
  auto guarded_cell = [&](System& system, std::size_t d,
                          const trace::WorkloadProfile& w,
                          u64 instructions) -> RunResult {
    if (opts.cell_timeout_s <= 0) return cell(system, d, w, instructions);
    const u32 attempts = 1 + opts.cell_retries;
    for (u32 a = 0; a < attempts; ++a) {
      const prof::Stopwatch watchdog;
      system.set_interrupt([&watchdog, limit = opts.cell_timeout_s] {
        return watchdog.seconds() > limit;
      });
      try {
        RunResult r = cell(system, d, w, instructions);
        system.set_interrupt(nullptr);
        return r;
      } catch (const RunInterrupted&) {
        system.set_interrupt(nullptr);
        if (a + 1 < attempts) system.allow_restore_once();
      }
    }
    RunResult r;
    r.design = design_name(d);
    r.workload = w.name;
    r.timed_out = true;
    return r;
  };

  unsigned jobs = opts.jobs ? opts.jobs : ThreadPool::default_concurrency();
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, total));

  if (jobs <= 1) {
    System system(cfg_);
    std::size_t done = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      for (std::size_t d = 0; d < n_designs; ++d) {
        if (opts.cancel && opts.cancel()) return;
        if (const RunResult* prior = restored_cell(d, w)) {
          if (opts.progress) report(++done);
          results_.push_back(*prior);
          continue;
        }
        RunResult r = guarded_cell(system, d, workloads[w], instr[w]);
        if (opts.progress) report(++done);
        if (opts.on_result) opts.on_result(r);
        results_.push_back(std::move(r));
      }
    }
    return;
  }

  // Parallel path: workers claim cells dynamically but commit them through
  // indexed slots in matrix order, so results_ (and therefore write_csv)
  // are byte-identical to a serial run. on_result also fires in matrix
  // order, under the commit lock.
  std::vector<std::unique_ptr<System>> systems;
  systems.reserve(jobs);
  for (unsigned j = 0; j < jobs; ++j) {
    systems.push_back(std::make_unique<System>(cfg_));
  }

  std::vector<RunResult> slots(total);
  std::vector<char> ready(total, 0);
  std::vector<char> restored(total, 0);
  std::vector<char> skipped(total, 0);
  std::mutex mu;
  std::size_t committed = 0;
  std::size_t completed = 0;

  ThreadPool pool(jobs);
  pool.parallel_for(total, [&](std::size_t i, unsigned worker) {
    const std::size_t w = i / n_designs;
    const std::size_t d = i % n_designs;
    RunResult r;
    bool from_journal = false;
    bool skip = false;
    if (const RunResult* prior = restored_cell(d, w)) {
      r = *prior;
      from_journal = true;
    } else if (opts.cancel && opts.cancel()) {
      // Cancelled before this cell started: commit an empty marker so the
      // in-order drain below still advances past it (cells that were
      // already running finish and journal normally).
      skip = true;
    } else {
      r = guarded_cell(*systems[worker], d, workloads[w], instr[w]);
    }

    std::lock_guard<std::mutex> lk(mu);
    slots[i] = std::move(r);
    ready[i] = 1;
    restored[i] = from_journal ? 1 : 0;
    skipped[i] = skip ? 1 : 0;
    if (opts.progress) report(++completed);
    while (committed < total && ready[committed]) {
      if (!skipped[committed]) {
        if (opts.on_result && !restored[committed]) {
          opts.on_result(slots[committed]);
        }
        results_.push_back(std::move(slots[committed]));
      }
      ++committed;
    }
  });
}

void ExperimentRunner::run_mix_matrix(const std::vector<std::string>& designs,
                                      const std::vector<MixSpec>& mixes,
                                      const RunMatrixOptions& opts) {
  if (designs.empty() || mixes.empty()) return;

  // Every workload named by any mix, in first-seen order.
  std::vector<std::string> uniq;
  for (const auto& m : mixes) {
    for (const auto& w : m.workloads) {
      if (std::find(uniq.begin(), uniq.end(), w) == uniq.end()) {
        uniq.push_back(w);
      }
    }
  }

  // One shared per-core budget for the alone and co-run phases, so every
  // speedup compares equal-length slices of the same instruction stream.
  u64 budget = opts.instructions;
  if (!budget) {
    for (const auto& w : uniq) {
      budget = std::max(
          budget, default_instructions_for(
                      trace::WorkloadProfile::by_name(w), opts.target_misses,
                      opts.min_instructions, opts.max_instructions));
    }
  }

  // Phase 1: alone baselines — one core, observability off (baselines feed
  // only the speedup denominators; their artifacts are never exported).
  // Journaled "alone" lines from a resumed run are restored up front.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& d : designs) {
    for (const auto& w : uniq) {
      if (alone_ipc_.count({d, w})) continue;
      if (opts.resume) {
        if (const double* prior = opts.resume->find_alone(d, w)) {
          alone_ipc_[{d, w}] = *prior;
          continue;
        }
      }
      pairs.emplace_back(d, w);
    }
  }
  SystemConfig alone_cfg = cfg_;
  alone_cfg.core.cores = 1;
  alone_cfg.obs = ObservabilityConfig{};
  // A --capture-trace sink records the *co-run* miss stream only; letting
  // the alone baselines append too would interleave three runs' records.
  alone_cfg.capture = nullptr;

  // Watchdog wrapper for one alone baseline. An exhausted deadline
  // commits ipc 0, which the speedup scoring already treats as "no
  // baseline" (the core is skipped), so the mix scores stay well-defined.
  auto guarded_alone = [&](System& system, std::size_t i) -> double {
    const auto run_once = [&] {
      return system
          .run(pairs[i].first,
               trace::WorkloadProfile::by_name(pairs[i].second), budget)
          .ipc;
    };
    if (opts.cell_timeout_s <= 0) return run_once();
    const u32 attempts = 1 + opts.cell_retries;
    for (u32 a = 0; a < attempts; ++a) {
      const prof::Stopwatch watchdog;
      system.set_interrupt([&watchdog, limit = opts.cell_timeout_s] {
        return watchdog.seconds() > limit;
      });
      try {
        const double ipc = run_once();
        system.set_interrupt(nullptr);
        return ipc;
      } catch (const RunInterrupted&) {
        system.set_interrupt(nullptr);
        if (a + 1 < attempts) system.allow_restore_once();
      }
    }
    return 0.0;
  };

  // Commits one finished baseline: the cache feeds phase 2, on_alone
  // checkpoints it. Cancelled pairs are never committed (and never
  // journaled), so a resumed run re-simulates exactly those.
  auto commit_alone = [&](std::size_t i, double ipc) {
    alone_ipc_[pairs[i]] = ipc;
    if (opts.on_alone) opts.on_alone(pairs[i].first, pairs[i].second, ipc);
  };

  unsigned jobs = opts.jobs ? opts.jobs : ThreadPool::default_concurrency();
  const unsigned alone_jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, pairs.size()));
  if (alone_jobs <= 1) {
    System system(alone_cfg);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (opts.cancel && opts.cancel()) break;
      commit_alone(i, guarded_alone(system, i));
      if (opts.progress) {
        std::fprintf(stderr, "[mix] alone %zu/%zu baselines\n", i + 1,
                     pairs.size());
      }
    }
  } else if (!pairs.empty()) {
    std::vector<std::unique_ptr<System>> systems;
    for (unsigned j = 0; j < alone_jobs; ++j) {
      systems.push_back(std::make_unique<System>(alone_cfg));
    }
    std::vector<double> alone(pairs.size(), 0);
    std::vector<char> ready(pairs.size(), 0);
    std::vector<char> skipped(pairs.size(), 0);
    std::mutex mu;
    std::size_t committed = 0;
    std::size_t done = 0;
    ThreadPool pool(alone_jobs);
    pool.parallel_for(pairs.size(), [&](std::size_t i, unsigned worker) {
      double ipc = 0;
      bool skip = true;
      if (!(opts.cancel && opts.cancel())) {
        ipc = guarded_alone(*systems[worker], i);
        skip = false;
      }
      std::lock_guard<std::mutex> lk(mu);
      alone[i] = ipc;
      ready[i] = 1;
      skipped[i] = skip ? 1 : 0;
      if (opts.progress) {
        std::fprintf(stderr, "[mix] alone %zu/%zu baselines\n", ++done,
                     pairs.size());
      }
      while (committed < pairs.size() && ready[committed]) {
        if (!skipped[committed]) commit_alone(committed, alone[committed]);
        ++committed;
      }
    });
  }

  // Phase 2: co-runs — mix-major, design-minor cells committed through
  // indexed slots in matrix order (same discipline as run_cells), so
  // mix_results_ / results_ and every writer are --jobs independent.
  // Journaled "mix" cells are restored without re-simulation (and without
  // re-firing the checkpoint callbacks).
  const std::size_t total = mixes.size() * designs.size();
  const unsigned mix_jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, total));
  auto restored_mix = [&](std::size_t d, std::size_t m) -> const MixResult* {
    if (!opts.resume) return nullptr;
    return opts.resume->find_mix(designs[d], mixes[m].name);
  };
  // Watchdog wrapper for one co-run cell (same contract as run_cells'
  // guarded_cell: retry from snapshot, then a timed_out placeholder).
  auto guarded_mix_cell = [&](System& system, std::size_t d,
                              std::size_t m) -> MixResult {
    if (opts.cell_timeout_s <= 0) {
      return run_mix_cell(system, designs[d], mixes[m], budget, alone_ipc_);
    }
    const u32 attempts = 1 + opts.cell_retries;
    for (u32 a = 0; a < attempts; ++a) {
      const prof::Stopwatch watchdog;
      system.set_interrupt([&watchdog, limit = opts.cell_timeout_s] {
        return watchdog.seconds() > limit;
      });
      try {
        MixResult r =
            run_mix_cell(system, designs[d], mixes[m], budget, alone_ipc_);
        system.set_interrupt(nullptr);
        return r;
      } catch (const RunInterrupted&) {
        system.set_interrupt(nullptr);
        if (a + 1 < attempts) system.allow_restore_once();
      }
    }
    MixResult r;
    r.design = designs[d];
    r.mix = mixes[m].name;
    r.aggregate.design = designs[d];
    r.aggregate.workload = mixes[m].name;
    r.aggregate.timed_out = true;
    return r;
  };

  auto commit = [&](MixResult&& r, bool from_journal) {
    if (!from_journal) {
      if (opts.on_result) opts.on_result(r.aggregate);
      if (opts.on_mix_result) opts.on_mix_result(r);
    }
    results_.push_back(r.aggregate);
    mix_results_.push_back(std::move(r));
  };

  if (mix_jobs <= 1) {
    System system(cfg_);
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      for (std::size_t d = 0; d < designs.size(); ++d) {
        if (const MixResult* prior = restored_mix(d, m)) {
          commit(MixResult(*prior), /*from_journal=*/true);
        } else {
          if (opts.cancel && opts.cancel()) return;
          commit(guarded_mix_cell(system, d, m), /*from_journal=*/false);
        }
        if (opts.progress) {
          std::fprintf(stderr, "[mix] %zu/%zu co-runs\n",
                       m * designs.size() + d + 1, total);
        }
      }
    }
    return;
  }

  std::vector<std::unique_ptr<System>> systems;
  for (unsigned j = 0; j < mix_jobs; ++j) {
    systems.push_back(std::make_unique<System>(cfg_));
  }
  std::vector<MixResult> slots(total);
  std::vector<char> ready(total, 0);
  std::vector<char> restored(total, 0);
  std::vector<char> skipped(total, 0);
  std::mutex mu;
  std::size_t committed = 0;
  std::size_t completed = 0;
  ThreadPool pool(mix_jobs);
  pool.parallel_for(total, [&](std::size_t i, unsigned worker) {
    const std::size_t m = i / designs.size();
    const std::size_t d = i % designs.size();
    MixResult r;
    bool from_journal = false;
    bool skip = false;
    if (const MixResult* prior = restored_mix(d, m)) {
      r = *prior;
      from_journal = true;
    } else if (opts.cancel && opts.cancel()) {
      skip = true;
    } else {
      r = guarded_mix_cell(*systems[worker], d, m);
    }
    std::lock_guard<std::mutex> lk(mu);
    slots[i] = std::move(r);
    ready[i] = 1;
    restored[i] = from_journal ? 1 : 0;
    skipped[i] = skip ? 1 : 0;
    if (opts.progress) {
      std::fprintf(stderr, "[mix] %zu/%zu co-runs\n", ++completed, total);
    }
    while (committed < total && ready[committed]) {
      if (!skipped[committed]) {
        commit(std::move(slots[committed]), restored[committed] != 0);
      }
      ++committed;
    }
  });
}

void ExperimentRunner::write_mix_csv(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  TextTable t({"design", "mix", "core", "workload", "instructions", "misses",
               "ipc", "alone_ipc", "speedup", "hbm_serve_rate",
               "mean_latency_ns", "latency_p50_ns", "latency_p99_ns",
               "hbm_bytes", "dram_bytes", "weighted_speedup",
               "hmean_speedup", "max_slowdown"});
  for (const auto& r : mix_results_) {
    for (const auto& c : r.cores) {
      t.add_row({r.design, r.mix, std::to_string(c.perf.core),
                 c.perf.workload, std::to_string(c.perf.instructions),
                 std::to_string(c.perf.misses), fmt_double(c.perf.ipc, 4),
                 fmt_double(c.alone_ipc, 4), fmt_double(c.speedup, 4),
                 fmt_double(c.perf.hbm_serve_rate, 4),
                 fmt_double(c.perf.mean_latency_ns, 2),
                 fmt_double(c.perf.latency_p50_ns, 2),
                 fmt_double(c.perf.latency_p99_ns, 2),
                 std::to_string(c.perf.hbm_bytes),
                 std::to_string(c.perf.dram_bytes),
                 fmt_double(r.weighted_speedup, 4),
                 fmt_double(r.hmean_speedup, 4),
                 fmt_double(r.max_slowdown, 4)});
    }
  }
  t.print_csv(os);
}

void ExperimentRunner::write_mix_json(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  const bool fault = cfg_.fault.enabled();
  const bool queue = queue_configured();
  const bool timeout = any_timed_out(results_);
  os << "[\n";
  for (std::size_t i = 0; i < mix_results_.size(); ++i) {
    os << "  " << mix_result_to_json(mix_results_[i], fault, queue, timeout)
       << (i + 1 < mix_results_.size() ? "," : "") << '\n';
  }
  os << "]\n";
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
  // The reliability / queue / timeout columns appear only when the
  // matching subsystem is configured (or a watchdog placeholder exists),
  // so legacy CSVs keep their historical column set byte-for-byte.
  const bool fault = cfg_.fault.enabled();
  const bool queue = queue_configured();
  const bool timeout = any_timed_out(results_);
  std::vector<std::string> header = {
      "design", "workload", "instructions", "misses", "ipc",
      "hbm_bytes", "dram_bytes", "energy_mj", "hbm_serve_rate",
      "mean_latency_ns", "latency_p50_ns", "latency_p90_ns",
      "latency_p99_ns", "latency_p999_ns", "mal_fraction",
      "overfetch", "page_faults", "metadata_sram_bytes"};
  if (fault) {
    header.insert(header.end(),
                  {"ce_count", "ue_count", "due_retries", "due_unrecovered",
                   "due_data_loss", "retired_rows", "retired_frames",
                   "degraded_sets"});
  }
  if (queue) {
    header.insert(header.end(),
                  {"queueing_latency_avg", "read_queue_latency_avg",
                   "req_queue_length_avg", "write_drain_count"});
  }
  if (timeout) {
    header.insert(header.end(), {"timed_out"});
  }
  TextTable t(header);
  for (const auto& r : results_) {
    std::vector<std::string> row = {
        r.design, r.workload, std::to_string(r.instructions),
        std::to_string(r.misses), fmt_double(r.ipc, 4),
        std::to_string(r.hbm_bytes), std::to_string(r.dram_bytes),
        fmt_double(r.energy_mj, 4), fmt_double(r.hbm_serve_rate, 4),
        fmt_double(r.mean_latency_ns, 2),
        fmt_double(r.latency_p50_ns, 2),
        fmt_double(r.latency_p90_ns, 2),
        fmt_double(r.latency_p99_ns, 2),
        fmt_double(r.latency_p999_ns, 2),
        fmt_double(r.mal_fraction, 4), fmt_double(r.overfetch, 4),
        std::to_string(r.page_faults),
        std::to_string(r.metadata_sram_bytes)};
    if (fault) {
      row.insert(row.end(),
                 {std::to_string(r.ce_count), std::to_string(r.ue_count),
                  std::to_string(r.due_retries),
                  std::to_string(r.due_unrecovered),
                  std::to_string(r.due_data_loss),
                  std::to_string(r.retired_rows),
                  std::to_string(r.retired_frames),
                  std::to_string(r.degraded_sets)});
    }
    if (queue) {
      row.insert(row.end(),
                 {fmt_double(r.queueing_latency_avg, 2),
                  fmt_double(r.read_queue_latency_avg, 2),
                  fmt_double(r.req_queue_length_avg, 4),
                  std::to_string(r.write_drain_count)});
    }
    if (timeout) {
      row.insert(row.end(), {std::to_string(r.timed_out ? 1 : 0)});
    }
    t.add_row(row);
  }
  t.print_csv(os);
}

void ExperimentRunner::write_json(std::ostream& os) const {
  prof::ScopedPhase prof_phase(prof::Phase::kIo);
  const bool fault = cfg_.fault.enabled();
  const bool queue = queue_configured();
  const bool timeout = any_timed_out(results_);
  os << "[\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    os << "  " << result_to_json(results_[i], fault, queue, timeout)
       << (i + 1 < results_.size() ? "," : "") << '\n';
  }
  os << "]\n";
}

// The profiled overloads stay below the plain writers: tools/bb_analyze's
// result-schema rule inspects the first definition of each writer, which
// must remain the canonical (golden-hashed) one.

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
  write_epoch_csv_header(os, {"design", "workload"}, columns);
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
      const std::string extra = "\"design\":\"" + json_escape(r.design) +
                                "\",\"workload\":\"" +
                                json_escape(r.workload) + "\",";
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
