// General-purpose simulation driver: run any (design x workload) matrix
// from the command line and emit a table or CSV.
//
//   ./bbsim --designs=DRAM-only,Bumblebee,Hybrid2 --workloads=mcf,wrf
//   ./bbsim --designs=all --workloads=all --misses=50000 --csv
//   ./bbsim --designs=DRAM-only,Bumblebee --workloads=mcf
//           --epoch-csv=epochs.csv --event-trace=run.json
//           --trace-format=chrome
//   ./bbsim --designs=Bumblebee --mix=mixed-locality4,mcf+lbm --csv
//   ./bbsim --designs=Bumblebee --workloads=mcf --fault-profile=mixed
//           --fault-rate=1e-4 --fault-seed=1 --csv
//   ./bbsim --designs=Bumblebee --workloads=mcf --instructions=2000000
//           --capture-trace=mcf.bbtrace
//   ./bbsim --designs=all --replay-trace=mcf.bbtrace --csv
//
// Three distinct trace flags: --event-trace (JSONL/Chrome *event* trace of
// remap/swap/warmup events), --capture-trace (record the run's binary miss
// stream), and --replay-trace (drive designs from a recorded binary miss
// stream in bounded memory).
//
// Design names follow the factory (README); "all" expands to
// baselines::comparison_designs() — the Figure 8 set plus the
// PoM/SILC-FM/MemPod extensions. --mix switches to multi-programmed
// co-runs: each comma-separated entry is a preset name (--list-mixes) or
// '+'-joined workload names, one per core.
//
// Exit codes: 0 success, 2 usage error (unknown flag or name / bad value),
// 3 I/O error (unopenable output or journal file), 4 internal error,
// 130 interrupted (SIGINT; the checkpoint journal, if any, is flushed).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "baselines/factory.h"
#include "common/cli.h"
#include "common/flags.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/table.h"
#include "fault/fault.h"
#include "mem/request_queue.h"
#include "sim/experiment.h"
#include "trace/stream.h"

using namespace bb;

namespace {

constexpr int kExitIo = cli::kExitIo;
constexpr int kExitInterrupted = cli::kExitInterrupted;

// SIGINT requests cooperative cancellation: the matrix stops claiming new
// cells, running cells finish and journal, and main exits with 130.
volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

/// Commits a rendered artifact via temp+rename, naming the owning flag in
/// any I/O error so the user knows which output path to fix.
void commit_artifact(const char* flag, const std::string& path,
                     const std::string& content) {
  try {
    snap::write_file_atomic(path, content);
  } catch (const std::ios_base::failure& e) {
    throw std::ios_base::failure(std::string("--") + flag + ": " + e.what());
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Every flag --help documents; cli_main rejects any other --name.
const std::vector<std::string_view> kKnownFlags = {
    "designs", "workloads", "misses", "warmup", "cores", "seed", "csv",
    "json", "profile", "jobs", "epoch-csv", "epoch-requests", "epoch-ticks",
    "event-trace", "trace-format", "capture-trace", "replay-trace",
    "resume", "snapshot-dir", "snapshot-interval", "restore", "cell-timeout",
    "cell-retries", "mix", "instructions", "fault-profile", "fault-rate",
    "fault-seed", "queue-depth", "write-watermarks", "list-workloads",
    "list-mixes", "help",
};

int run(const Flags& flags) {
  if (flags.has("help")) {
    std::cout <<
        "usage: bbsim [--designs=a,b,...] [--workloads=x,y,...]\n"
        "              [--misses=N] [--warmup=PCT] [--cores=N] [--seed=N]\n"
        "              [--csv[=FILE]]  (results CSV; FILE written\n"
        "               atomically, default stdout)\n"
        "              [--json[=FILE]]  (full per-run results incl.\n"
        "               percentiles; FILE written atomically)\n"
        "              [--profile]  (host-side profiling: phase breakdown,\n"
        "               requests/sec, peak RSS on stderr; --json gains a\n"
        "               separate \"host\" section. Simulated results are\n"
        "               byte-identical with or without it)\n"
        "              [--jobs=N]  (N worker threads; default: all)\n"
        "              [--epoch-csv=FILE]  (epoch time-series CSV)\n"
        "              [--epoch-requests=N]  (epoch every N requests;\n"
        "               default 5000 when --epoch-csv is given)\n"
        "              [--epoch-ticks=N]  (also close epochs every N ticks)\n"
        "              [--event-trace=FILE]  (structured event trace of\n"
        "               remap/swap/warmup events)\n"
        "              [--trace-format=jsonl|chrome]  (default jsonl)\n"
        "              [--capture-trace=FILE]  (record the run's binary\n"
        "               miss stream — exactly one design and one workload\n"
        "               or mix; replayable with --replay-trace)\n"
        "              [--replay-trace=FILE]  (replay a recorded binary\n"
        "               miss stream through every design in bounded\n"
        "               memory; workload column = trace file name;\n"
        "               --instructions defaults to one full pass)\n"
        "              [--resume=FILE]  (checkpoint journal: finished cells\n"
        "               are restored from FILE, new cells appended to it;\n"
        "               works for plain and --mix matrices. A FILE from a\n"
        "               sweep with another configuration or budget is\n"
        "               moved aside and restores nothing)\n"
        "              [--snapshot-dir=DIR]  (crash tolerance: per-cell\n"
        "               mid-run state snapshots live in DIR)\n"
        "              [--snapshot-interval=N]  (commit a snapshot every N\n"
        "               trace records; requires --snapshot-dir)\n"
        "              [--restore]  (resume cells from their snapshot\n"
        "               files; the resumed run's outputs are byte-identical\n"
        "               to an uninterrupted one. Requires --snapshot-dir)\n"
        "              [--cell-timeout=S]  (watchdog: soft per-cell deadline\n"
        "               in seconds; a cell past it is interrupted, retried\n"
        "               from its snapshot, then committed as a timed_out\n"
        "               placeholder row)\n"
        "              [--cell-retries=N]  (watchdog retries per cell;\n"
        "               default 1)\n"
        "              [--mix=SPEC,...]  (multi-programmed co-runs: each\n"
        "               SPEC is a preset name or w1+w2+... per-core list)\n"
        "              [--instructions=N]  (fixed budget: per cell, or per\n"
        "               core with --mix; overrides --misses)\n"
        "              [--fault-profile=P]  (fault injection; P one of\n"
        "               none|transient|stuck-rows|dead-bank|mixed)\n"
        "              [--fault-rate=R]  (per-access fault probability,\n"
        "               default 1e-4; implies --fault-profile=mixed)\n"
        "              [--fault-seed=N]  (extra fault-model seed salt)\n"
        "              [--queue-depth=N]  (FR-FCFS request queues on both\n"
        "               devices, N entries per channel; 0 disables)\n"
        "              [--write-watermarks=HI:LO]  (write-drain hysteresis\n"
        "               thresholds, LO < HI <= depth; implies queues on)\n"
        "              [--list-workloads] [--list-mixes] [--help]\n"
        "exit codes: 0 ok, 2 usage, 3 I/O, 4 internal, 130 interrupted\n";
    std::cout << "designs:";
    for (const auto& name : baselines::all_design_names()) {
      std::cout << ' ' << name;
    }
    std::cout << " | all\nworkloads: Table II names | all\n";
    return 0;
  }
  if (flags.has("list-workloads")) {
    for (const auto& name : trace::workload_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (flags.has("list-mixes")) {
    for (const auto& m : sim::MixSpec::presets()) {
      std::cout << m.name << ":";
      for (const auto& w : m.workloads) std::cout << ' ' << w;
      std::cout << "\n";
    }
    return 0;
  }

  std::vector<std::string> designs =
      split_csv(flags.get_string("designs", "DRAM-only,Bumblebee"));
  if (designs.size() == 1 && designs[0] == "all") {
    designs = baselines::comparison_designs();
  }
  baselines::require_design_names(designs);

  std::vector<trace::WorkloadProfile> workloads;
  const std::string wl = flags.get_string("workloads", "mcf");
  if (wl == "all") {
    workloads = trace::WorkloadProfile::spec2017();
  } else {
    const std::vector<std::string> names = split_csv(wl);
    trace::require_workload_names(names);
    for (const auto& name : names) {
      workloads.push_back(trace::WorkloadProfile::by_name(name));
    }
  }

  std::vector<sim::MixSpec> mixes;
  const std::string mix_arg = flags.get_string("mix", "");
  for (const auto& spec : split_csv(mix_arg)) {
    mixes.push_back(sim::MixSpec::parse(spec));
  }

  sim::SystemConfig cfg;
  cfg.warmup_ratio = flags.get_double("warmup", 100.0) / 100.0;
  cfg.core.cores = static_cast<u32>(flags.get_u64("cores", cfg.core.cores));
  cfg.seed = flags.get_u64("seed", cfg.seed);

  // Fault injection (opt-in; any of the three flags enables it). A bare
  // --fault-rate or --fault-seed implies the "mixed" profile.
  if (flags.has("fault-profile") || flags.has("fault-rate") ||
      flags.has("fault-seed")) {
    cfg.fault = fault::FaultConfig::profile(
        flags.get_string("fault-profile", "mixed"),
        flags.get_double("fault-rate", 1e-4), flags.get_u64("fault-seed", 0));
  }

  // Request-queue layer (opt-in). --queue-depth=0 keeps it off.
  mem::QueueConfig qcfg = mem::QueueConfig::fr_fcfs();
  bool queue_on = false;
  if (flags.has("queue-depth")) {
    const u64 depth = flags.get_u64("queue-depth", qcfg.queue_depth);
    queue_on = depth > 0;
    if (queue_on) {
      qcfg.queue_depth = static_cast<u32>(depth);
      // Keep the default 3/4 : 1/4 hysteresis shape at any depth.
      qcfg.write_high_watermark =
          std::max<u32>(1, qcfg.queue_depth * 3 / 4);
      qcfg.write_low_watermark = qcfg.queue_depth / 4;
    }
  }
  if (flags.has("write-watermarks")) {
    if (flags.has("queue-depth") && !queue_on) {
      throw std::invalid_argument(
          "--write-watermarks conflicts with --queue-depth=0");
    }
    const std::string wm = flags.get_string("write-watermarks", "");
    unsigned hi = 0, lo = 0;
    char extra = 0;
    if (std::sscanf(wm.c_str(), "%u:%u%c", &hi, &lo, &extra) != 2) {
      throw std::invalid_argument("--write-watermarks expects HI:LO, got: " +
                                  wm);
    }
    if (!(lo < hi && hi <= qcfg.queue_depth)) {
      throw std::invalid_argument(
          "--write-watermarks requires LO < HI <= queue depth (" +
          std::to_string(qcfg.queue_depth) + ")");
    }
    qcfg.write_high_watermark = hi;
    qcfg.write_low_watermark = lo;
    queue_on = true;
  }
  if (queue_on) {
    cfg.hbm.queue = qcfg;
    cfg.dram.queue = qcfg;
  }

  // Observability (opt-in; off = zero overhead beyond a pointer test).
  const std::string epoch_csv = flags.get_string("epoch-csv", "");
  const std::string trace_file = flags.get_string("event-trace", "");
  const std::string trace_format = flags.get_string("trace-format", "jsonl");
  if (trace_format != "jsonl" && trace_format != "chrome") {
    throw std::invalid_argument("unknown --trace-format: " + trace_format);
  }
  cfg.obs.trace = !trace_file.empty();
  if (!epoch_csv.empty() || flags.has("epoch-requests") ||
      flags.has("epoch-ticks")) {
    cfg.obs.epoch.every_requests = flags.get_u64("epoch-requests", 5'000);
    cfg.obs.epoch.every_ticks = flags.get_u64("epoch-ticks", 0);
  }

  // Binary miss-stream capture and replay (src/trace/stream.h).
  const std::string capture_path = flags.get_string("capture-trace", "");
  const std::string replay_path = flags.get_string("replay-trace", "");
  if (!replay_path.empty()) {
    if (!capture_path.empty()) {
      throw std::invalid_argument(
          "--replay-trace conflicts with --capture-trace");
    }
    if (!mixes.empty()) {
      throw std::invalid_argument(
          "--replay-trace conflicts with --mix (captured traces already "
          "merge all cores into one stream)");
    }
    if (flags.has("workloads")) {
      throw std::invalid_argument(
          "--replay-trace conflicts with --workloads (the trace file is the "
          "workload)");
    }
  }
  trace::TraceCaptureSink capture;
  if (!capture_path.empty()) {
    // One sink records one run; a multi-cell matrix would interleave
    // unrelated streams (and race under --jobs).
    const std::size_t cells = designs.size() *
                              (mixes.empty() ? workloads.size() : mixes.size());
    if (cells != 1) {
      throw std::invalid_argument(
          "--capture-trace records exactly one run; use one design and one "
          "workload (or one mix)");
    }
    capture.open(capture_path);
    cfg.capture = &capture;
  }

  // Crash tolerance: mid-run snapshots, restore, and the cell watchdog.
  const std::string snapshot_dir = flags.get_string("snapshot-dir", "");
  const u64 snapshot_interval = flags.get_u64("snapshot-interval", 0);
  const bool restore = flags.has("restore");
  const double cell_timeout = flags.get_double("cell-timeout", 0.0);
  if (snapshot_interval > 0 && snapshot_dir.empty()) {
    throw std::invalid_argument(
        "--snapshot-interval requires --snapshot-dir");
  }
  if (restore && snapshot_dir.empty()) {
    throw std::invalid_argument("--restore requires --snapshot-dir");
  }
  if (!snapshot_dir.empty() && snapshot_interval == 0 && !restore) {
    throw std::invalid_argument(
        "--snapshot-dir needs --snapshot-interval and/or --restore");
  }
  if (!capture_path.empty() &&
      (!snapshot_dir.empty() || cell_timeout > 0)) {
    // A capture sink appends the whole miss stream in one pass; a resumed
    // or interrupted-and-retried run would duplicate records in it.
    throw std::invalid_argument(
        "--capture-trace conflicts with --snapshot-dir / --cell-timeout");
  }
  cfg.snapshot.dir = snapshot_dir;
  cfg.snapshot.interval_records = snapshot_interval;
  cfg.snapshot.restore = restore;
  if (cfg.snapshot.configured()) {
    std::error_code ec;
    std::filesystem::create_directories(snapshot_dir, ec);
    if (ec) {
      std::cerr << "bbsim: cannot create --snapshot-dir: " << snapshot_dir
                << ": " << ec.message() << "\n";
      return kExitIo;
    }
  }

  sim::ExperimentRunner runner(cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.target_misses = flags.get_u64("misses", 100'000);
  opts.instructions = flags.get_u64("instructions", 0);
  opts.cell_timeout_s = cell_timeout;
  opts.cell_retries = static_cast<u32>(flags.get_u64("cell-retries", 1));

  // Checkpoint/resume: restore finished cells from the journal, append
  // newly finished cells to it (crash-safe: one line per cell; a torn
  // final line from a killed run is skipped on load). The journal opens
  // with a header line naming its sweep (configuration and budget rule).
  // A journal of another sweep, or one that yields nothing but malformed
  // lines, is quarantined — renamed aside and replaced with a fresh one —
  // rather than restoring rows simulated under other settings or
  // re-simulating on top of a file that will keep confusing every future
  // resume.
  const std::string resume_file = flags.get_string("resume", "");
  sim::ResultJournal journal(sim::sweep_hash(cfg, opts));
  std::ofstream journal_out;
  if (!resume_file.empty()) {
    std::vector<std::string> kept_lines;
    bool fresh = true;  // the journal still needs its header line
    if (std::ifstream in{resume_file}) {
      const auto loaded = journal.load_stats(in, &kept_lines);
      in.close();
      if (loaded.foreign || (loaded.restored == 0 && loaded.malformed > 0)) {
        // quarantine_name never reuses an occupied .corrupt path, so a
        // journal quarantined by an earlier resume is not overwritten.
        const std::string quarantined = sim::quarantine_name(resume_file);
        if (std::rename(resume_file.c_str(), quarantined.c_str()) != 0) {
          std::cerr << "bbsim: cannot quarantine unusable --resume file: "
                    << resume_file << "\n";
          return kExitIo;
        }
        std::cerr << "bbsim: warning: --resume file " << resume_file
                  << (loaded.foreign
                          ? " belongs to another sweep (configuration or "
                            "budget differs)"
                          : " had no parseable entries")
                  << "; moved to " << quarantined
                  << ", starting a fresh journal\n";
      } else {
        fresh = !loaded.header;
        if (loaded.malformed > 0) {
          std::cerr << "bbsim: warning: skipped " << loaded.malformed
                    << " malformed journal line(s) in " << resume_file
                    << " (torn tail from an interrupted run?)\n";
          // Cleanse the torn tail before appending: atomically rewrite the
          // journal with only its well-formed lines, so the file a resumed
          // run leaves behind is byte-identical to an uninterrupted one.
          std::string cleansed;
          for (const auto& kept : kept_lines) {
            cleansed += kept;
            cleansed += '\n';
          }
          commit_artifact("resume", resume_file, cleansed);
        }
        if (loaded.restored > 0) {
          std::cerr << "resume: " << loaded.restored << " entries from "
                    << resume_file << "\n";
        }
      }
    }
    journal_out.open(resume_file, std::ios::app);
    if (!journal_out) {
      std::cerr << "bbsim: cannot open --resume file: " << resume_file
                << "\n";
      return kExitIo;
    }
    if (fresh) journal_out << journal.header() << "\n" << std::flush;
    opts.resume = &journal;
  }

  // Every fresh cell, a mix's alone baselines and co-runs included, is
  // one journal line.
  opts.on_result = [&journal_out](const sim::RunResult& r) {
    std::cerr << r.design << "/" << r.workload << " done\n";
    if (journal_out.is_open()) {
      journal_out << sim::ResultJournal::line(r) << "\n" << std::flush;
    }
  };

  std::signal(SIGINT, on_sigint);
  opts.cancel = [] { return g_interrupted != 0; };

  // Host-side profiling (strictly observational: simulated outputs are
  // byte-identical with or without it; the golden-run test pins that).
  const bool profile = flags.has("profile");
  if (profile) {
    prof::reset();
    prof::enable(true);
  }
  const prof::Stopwatch run_clock;

  if (!replay_path.empty()) {
    sim::ExperimentRunner::ReplayMatrixOptions ropts;
    ropts.path = replay_path;
    // Result rows are labelled with the file name (sans directories), the
    // closest thing a trace has to a workload name.
    const std::size_t slash = replay_path.find_last_of('/');
    ropts.label = slash == std::string::npos ? replay_path
                                             : replay_path.substr(slash + 1);
    if (opts.instructions == 0) {
      // Default budget: exactly one pass over the trace. trace_info also
      // validates the file, so a bad path fails before any simulation.
      opts.instructions = trace::trace_info(replay_path).inst_gap_total;
      if (opts.instructions == 0) {
        throw std::invalid_argument("trace " + replay_path +
                                    " has zero instruction span; pass "
                                    "--instructions");
      }
    }
    runner.run_replay_matrix(designs, ropts, opts);
    // Point the summary-table loop at the replay pseudo-workload.
    trace::WorkloadProfile pseudo;
    pseudo.name = ropts.label;
    workloads = {pseudo};
  } else if (!mixes.empty()) {
    runner.run_mix_matrix(designs, mixes, opts);
  } else {
    runner.run_matrix(designs, workloads, opts);
  }

  if (cfg.capture != nullptr) {
    if (!capture.close()) {
      std::cerr << "bbsim: error writing --capture-trace file: "
                << capture_path << "\n";
      return kExitIo;
    }
    std::cerr << "bbsim: captured " << capture.records() << " records to "
              << capture_path << "\n";
  }

  if (g_interrupted) {
    if (journal_out.is_open()) {
      journal_out.flush();
      journal_out.close();
      std::cerr << "bbsim: interrupted; journal flushed to " << resume_file
                << "; rerun with --resume=" << resume_file
                << " to continue\n";
    } else {
      std::cerr << "bbsim: interrupted; partial results discarded (use "
                   "--resume=FILE to make runs restartable)\n";
    }
    return kExitInterrupted;
  }

  // File artifacts are rendered in memory and committed with a
  // write-temp-then-rename, so a crash mid-write never leaves a torn file
  // (snap::write_file_atomic throws SnapshotError -> exit 3 on failure).
  if (!epoch_csv.empty()) {
    std::ostringstream out;
    runner.write_epoch_csv(out);
    commit_artifact("epoch-csv", epoch_csv, out.str());
  }
  if (!trace_file.empty()) {
    std::ostringstream out;
    runner.write_trace(out, trace_format == "chrome"
                                ? sim::ExperimentRunner::TraceFormat::kChrome
                                : sim::ExperimentRunner::TraceFormat::kJsonl);
    commit_artifact("event-trace", trace_file, out.str());
  }

  // The host report is assembled after the epoch/trace writes so their io
  // time is included; the stderr summary keeps stdout clean for results.
  prof::HostReport host;
  if (profile) {
    u64 requests = 0;
    for (const auto& r : runner.results()) requests += r.misses;
    host = prof::make_host_report(run_clock.seconds(), requests);
    std::fprintf(stderr,
                 "[prof] wall %.3fs, %llu requests, %.0f req/s, "
                 "peak RSS %.1f MiB\n",
                 host.wall_seconds,
                 static_cast<unsigned long long>(host.requests),
                 host.requests_per_sec,
                 static_cast<double>(host.peak_rss_bytes) / (1024.0 * 1024.0));
    const double total_s =
        static_cast<double>(host.phases.total_ns()) * 1e-9;
    std::fprintf(stderr, "[prof] phases:");
    for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
      const double s = static_cast<double>(host.phases.ns[i]) * 1e-9;
      std::fprintf(stderr, " %s %.3fs (%.0f%%)",
                   prof::to_string(static_cast<prof::Phase>(i)), s,
                   total_s > 0 ? 100.0 * s / total_s : 0.0);
    }
    std::fprintf(stderr, "\n[prof] workers: %zu active\n",
                 host.worker_busy_ns_by_thread.size());
  }

  if (flags.has("csv")) {
    const std::string csv_file = flags.get_string("csv", "");
    std::ostringstream buf;
    std::ostream& os = csv_file.empty() ? static_cast<std::ostream&>(std::cout)
                                        : buf;
    if (!mixes.empty()) {
      runner.write_mix_csv(os);
    } else {
      runner.write_csv(os);
    }
    if (!csv_file.empty()) commit_artifact("csv", csv_file, buf.str());
    return 0;
  }
  if (flags.has("json")) {
    const std::string json_file = flags.get_string("json", "");
    std::ostringstream buf;
    std::ostream& os = json_file.empty()
                           ? static_cast<std::ostream&>(std::cout)
                           : buf;
    if (!mixes.empty()) {
      if (profile) {
        runner.write_mix_json(os, host);
      } else {
        runner.write_mix_json(os);
      }
    } else {
      if (profile) {
        runner.write_json(os, host);
      } else {
        runner.write_json(os);
      }
    }
    if (!json_file.empty()) commit_artifact("json", json_file, buf.str());
    return 0;
  }

  if (!mixes.empty()) {
    TextTable table({"mix", "design", "core", "workload", "IPC", "alone",
                     "speedup", "HBM serve", "WS", "hmean", "max SD"});
    for (const auto& r : runner.results()) {
      for (const auto& c : *r.core_perf) {
        table.add_row({r.workload, r.design, std::to_string(c.core),
                       c.workload, fmt_double(c.ipc, 2),
                       fmt_double(c.alone_ipc, 2),
                       fmt_double(c.speedup, 2) + "x",
                       fmt_percent(c.hbm_serve_rate),
                       fmt_double(r.weighted_speedup, 2),
                       fmt_double(r.hmean_speedup, 2),
                       fmt_double(r.max_slowdown, 2)});
      }
    }
    table.print(std::cout);
    return 0;
  }

  TextTable table({"workload", "design", "IPC", "speedup", "HBM serve",
                   "HBM traffic", "DRAM traffic", "energy (mJ)"});
  for (const auto& w : workloads) {
    double base_ipc = 0;
    for (const auto& r : runner.results()) {
      if (r.workload == w.name && r.design == "DRAM-only") base_ipc = r.ipc;
    }
    for (const auto& r : runner.results()) {
      if (r.workload != w.name) continue;
      table.add_row(
          {r.workload, r.design, fmt_double(r.ipc, 2),
           base_ipc > 0 ? fmt_double(r.ipc / base_ipc, 2) + "x" : "-",
           fmt_percent(r.hbm_serve_rate),
           fmt_bytes(static_cast<double>(r.hbm_bytes)),
           fmt_bytes(static_cast<double>(r.dram_bytes)),
           fmt_double(r.energy_mj, 2)});
    }
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "bbsim", kKnownFlags, run);
}
