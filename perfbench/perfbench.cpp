// bb_perfbench — one measurement of one host-performance workload.
//
// run.py drives this binary. Each mode prints one JSON object as the last
// line of its standard output:
//
//   bb_perfbench prepare --workload=W --seed=N --work=DIR [--probe-streams]
//       records the untimed inputs: the replay trace of dramonly_replay and,
//       with --probe-streams, the miss streams the paging probe replays.
//   bb_perfbench rep --workload=W --seed=N --work=DIR
//       one untraced repetition: set-up timing, then the timed workload.
//   bb_perfbench traced --workload=W --seed=N --work=DIR
//       one run with bb::prof phase timing on, plus the benchmark's own
//       spans around every public call it makes, and the paging probe.
//   bb_perfbench self-test
//       shows that every output check trips on a seeded bad result.
//
// Everything timed here is host time. Simulated statistics are checked
// and reported as exact counts, never scored.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/factory.h"
#include "checks.h"
#include "common/json.h"
#include "common/prof.h"
#include "common/thread_pool.h"
#include "hmm/paging.h"
#include "sim/experiment.h"
#include "trace/stream.h"

namespace {

using namespace bb;
using Clock = std::chrono::steady_clock;

// Fig 7/8 conventions: 300% warmup and the Fig 8 run-length rule.
constexpr double kWarmupRatio = 3.0;
constexpr u64 kTargetMisses = 120'000;
constexpr u64 kMinInstructions = 50'000'000;
constexpr u64 kMaxInstructions = 400'000'000;
// paper_matrix runs every cell at this percentage of the Fig 8 length.
constexpr u64 kMatrixLenPct = 2;
constexpr unsigned kMatrixWorkers = 4;

constexpr int kExitUsage = 2;
constexpr int kExitRefused = 3;
constexpr int kExitFailed = 4;

struct Args {
  std::string mode;
  std::string workload;
  std::string work;
  u64 seed = 42;
  bool probe_streams = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc > 1) a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    const auto eq = s.find('=');
    const std::string key = s.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : s.substr(eq + 1);
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--work") {
      a.work = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--probe-streams") {
      a.probe_streams = true;
    } else {
      throw std::invalid_argument("unknown argument " + s);
    }
  }
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Flat JSON object writer for the one-line reports.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[32];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(k, buf);
  }
  Json& count(const std::string& k, u64 v) { return raw(k, std::to_string(v)); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + json_escape(v) + "\"");
  }
  Json& flag(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + json_escape(k) + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- workloads -------------------------------------------------------------

/// What one workload simulates: a design x profile matrix or a replay of
/// the captured trace.
struct Plan {
  std::vector<std::string> designs;
  std::vector<trace::WorkloadProfile> profiles;
  u64 len_pct = 100;
  bool replay = false;
  bool matrix = false;
};

Plan make_plan(const std::string& workload) {
  Plan p;
  if (workload == "paper_matrix") {
    p.designs = {"DRAM-only"};
    for (const auto& d : baselines::figure8_designs()) p.designs.push_back(d);
    for (const auto& d : baselines::figure7_designs()) {
      if (d != "Bumblebee") p.designs.push_back(d);
    }
    p.profiles = trace::WorkloadProfile::spec2017();
    p.len_pct = kMatrixLenPct;
    p.matrix = true;
  } else if (workload == "dramonly_replay") {
    p.designs = {"DRAM-only"};
    p.profiles = {trace::WorkloadProfile::by_name("roms")};
    p.replay = true;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return p;
}

sim::SystemConfig base_config(u64 seed) {
  sim::SystemConfig cfg;
  cfg.seed = seed;
  cfg.warmup_ratio = kWarmupRatio;
  return cfg;
}

/// Measured-window instruction budget of one cell: Fig 8's rule, scaled.
u64 budget(const trace::WorkloadProfile& w, u64 pct) {
  return sim::default_instructions_for(w, kTargetMisses * pct / 100,
                                       kMinInstructions * pct / 100,
                                       kMaxInstructions * pct / 100);
}

std::string replay_path(const Args& a) { return a.work + "/replay.bbtrace"; }
std::string probe_path(const Args& a, const std::string& profile) {
  return a.work + "/probe_" + profile + ".bbtrace";
}

/// The replay budget: one pass over the trace, split 3:1 into warmup and
/// measured window like the run that captured it.
u64 replay_budget(const std::string& path) {
  return trace::trace_info(path).inst_gap_total /
         static_cast<u64>(1.0 + kWarmupRatio);
}

/// Captures the merged miss stream of one cell into `path`.
void capture(const sim::SystemConfig& base, const std::string& design,
             const trace::WorkloadProfile& w, u64 instructions,
             const std::string& path) {
  trace::TraceCaptureSink sink;
  sink.open(path);
  sim::SystemConfig cfg = base;
  cfg.capture = &sink;
  sim::System(cfg).run(design, w, instructions);
  if (!sink.close()) throw std::runtime_error("capture to " + path + " failed");
}

// ---- set-up ----------------------------------------------------------------

struct SetupTimes {
  double design_s = 0;    ///< devices + design controllers
  double trace_s = 0;     ///< trace sources (and trace validation)
  double validate_s = 0;  ///< trace::validate_trace alone
  double total() const { return design_s + trace_s; }
};

/// Times the public constructors a workload's cells go through: both
/// devices and the design for every cell, the generators of every lane, or
/// the validated, opened replay trace.
SetupTimes setup_pass(const Plan& plan, const sim::SystemConfig& cfg,
                      const std::string& trace_path) {
  SetupTimes t;
  for (const auto& w : plan.profiles) {
    for (const auto& d : plan.designs) {
      auto t0 = Clock::now();
      auto hbm = std::make_unique<mem::DramDevice>(cfg.hbm);
      auto dram = std::make_unique<mem::DramDevice>(cfg.dram);
      auto design = baselines::make_design(d, *hbm, *dram, cfg.paging);
      t.design_s += since(t0);
      design.reset();

      t0 = Clock::now();
      if (plan.replay) {
        const auto v0 = Clock::now();
        trace::validate_trace(trace_path);
        t.validate_s += since(v0);
        trace::StreamingTraceReader reader(trace_path);
      } else {
        std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
        for (const auto& lane :
             sim::CoreModel::homogeneous_lanes(w, cfg.seed, cfg.core.cores)) {
          gens.push_back(
              std::make_unique<trace::TraceGenerator>(lane.profile, lane.seed));
        }
      }
      t.trace_s += since(t0);
    }
  }
  return t;
}

// ---- execution -------------------------------------------------------------

struct Execution {
  std::vector<sim::RunResult> rows;
  std::unique_ptr<sim::System> system;  ///< replay only
  u64 sim_instructions = 0;             ///< warmup included, all cells
  double worker_cpu_s = 0;              ///< matrix only: summed worker CPU
};

Execution execute(const Plan& plan, const sim::SystemConfig& cfg,
                  const std::string& trace_path) {
  Execution ex;
  if (plan.matrix) {
    sim::ExperimentRunner runner(cfg);
    sim::RunMatrixOptions opts;
    opts.jobs = std::min(kMatrixWorkers, ThreadPool::default_concurrency());
    opts.target_misses = kTargetMisses * plan.len_pct / 100;
    opts.min_instructions = kMinInstructions * plan.len_pct / 100;
    opts.max_instructions = kMaxInstructions * plan.len_pct / 100;
    const double proc0 = cpu_seconds(RUSAGE_SELF);
    const double main0 = cpu_seconds(RUSAGE_THREAD);
    runner.run_matrix(plan.designs, plan.profiles, opts);
    ex.worker_cpu_s = (cpu_seconds(RUSAGE_SELF) - proc0) -
                      (cpu_seconds(RUSAGE_THREAD) - main0);
    ex.rows = runner.results();
    for (const auto& r : ex.rows) {
      const u64 b = budget(trace::WorkloadProfile::by_name(r.workload),
                           plan.len_pct);
      ex.sim_instructions +=
          static_cast<u64>(kWarmupRatio * static_cast<double>(b)) +
          r.instructions;
    }
    return ex;
  }
  ex.system = std::make_unique<sim::System>(cfg);
  const u64 instructions = replay_budget(trace_path);
  trace::StreamingTraceReader reader(trace_path);
  ex.rows.push_back(ex.system->run_replay(plan.designs[0], reader,
                                          plan.profiles[0].name, instructions));
  ex.sim_instructions =
      static_cast<u64>(kWarmupRatio * static_cast<double>(instructions)) +
      ex.rows[0].instructions;
  return ex;
}

/// Per-cell checks plus the matrix-order check; one entry per failure.
std::vector<std::string> check_rows(const Plan& plan,
                                    const std::vector<sim::RunResult>& rows) {
  std::vector<std::string> failures;
  for (const auto& r : rows) {
    if (auto why = perfbench::check_cell(r); !why.empty()) {
      failures.push_back(why);
    }
  }
  std::vector<std::string> names;
  for (const auto& w : plan.profiles) names.push_back(w.name);
  if (auto why = perfbench::check_matrix_order(rows, plan.designs, names);
      !why.empty()) {
    failures.push_back(why);
  }
  return failures;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

std::string build_json(const perfbench::BuildInfo& b) {
  return Json()
      .str("compiler", b.compiler)
      .str("build_type", b.build_type)
      .count("nproc", std::thread::hardware_concurrency())
      .count("workers",
             std::min(kMatrixWorkers, ThreadPool::default_concurrency()))
      .flag("bb_checks", b.bb_checks)
      .flag("asserts", b.asserts)
      .flag("sanitizers", b.sanitizers)
      .text();
}

// ---- simulated counts and paper comparison --------------------------------

std::string pct_token(const std::string& design) {
  std::string out;
  for (const char ch : design) {
    if (ch == '%') {
      out += "pct";
    } else {
      out += ch;
    }
  }
  return out;
}

double all_speedup(const std::vector<sim::RunResult>& rows,
                   const std::string& design) {
  std::vector<sim::RunResult> d, base;
  for (const auto& r : rows) {
    if (r.design == design) d.push_back(r);
    if (r.design == "DRAM-only") base.push_back(r);
  }
  return sim::group_by_mpki(d, base, sim::metric_ipc).all;
}

/// Fig 7 geomeans and Bumblebee's Fig 8(a) All-group numbers beside the
/// paper's values, labelled with the reduced run length. Unscored.
void add_paper_values(Json& j, const Plan& plan,
                      const std::vector<sim::RunResult>& rows) {
  const std::map<std::string, double> fig7_paper = {
      {"C-Only", 1.33}, {"M-Only", 1.37},   {"25%-C", 1.54},
      {"50%-C", 1.68},  {"No-Multi", 1.84}, {"Meta-H", 1.75},
      {"Alloc-D", 1.52}, {"Alloc-H", 1.54}, {"No-HMF", 1.86},
      {"Bumblebee", 2.00}};
  const std::string len = "len" + std::to_string(kMatrixLenPct) + "pct";
  for (const auto& d : baselines::figure7_designs()) {
    const double sim = plan.matrix ? all_speedup(rows, d) : 0.0;
    const double ref = fig7_paper.at(d);
    const std::string key = "paper.fig7_" + len + "." + pct_token(d);
    j.num(key + ".speedup", sim).num(key + ".ref", ref);
    j.num(key + ".err", plan.matrix ? sim / ref - 1.0 : 0.0);
  }
  // Fig 8(a) All: Bumblebee's speedup (the paper's 2.00 is its Fig 7 bar)
  // and its margin over the best competitor (paper: +35.2%).
  double bb_all = 0;
  double best_other = 0;
  if (plan.matrix) {
    bb_all = all_speedup(rows, "Bumblebee");
    for (const auto& d : baselines::figure8_designs()) {
      if (d != "Bumblebee") {
        best_other = std::max(best_other, all_speedup(rows, d));
      }
    }
  }
  const std::string key = "paper.fig8a_" + len + ".Bumblebee";
  j.num(key + ".all_speedup", bb_all).num(key + ".all_speedup_ref", 2.00);
  j.num(key + ".margin", best_other > 0 ? bb_all / best_other - 1.0 : 0.0);
  j.num(key + ".margin_ref", 0.352);
}

/// Exact simulated statistics. The replay reports the measurement window
/// of its one run; paper_matrix sums bytes and counts over all cells,
/// averages the rates, and reports 0 for the controller-internal counters
/// ExperimentRunner does not expose.
void add_sim_counts(Json& j, const Execution& ex) {
  const auto cls = [&](mem::TrafficClass c) {
    u64 s = 0;
    for (const auto& r : ex.rows) {
      s += r.hbm_class_bytes[static_cast<std::size_t>(c)] +
           r.dram_class_bytes[static_cast<std::size_t>(c)];
    }
    return s;
  };
  u64 requests = 0, faults = 0, hbm = 0, dram = 0;
  double ipc = 0, serve = 0, overfetch = 0;
  for (const auto& r : ex.rows) {
    requests += r.misses;
    faults += r.page_faults;
    hbm += r.hbm_bytes;
    dram += r.dram_bytes;
    ipc += r.ipc;
    serve += r.hbm_serve_rate;
    overfetch += r.overfetch;
  }
  const double n = static_cast<double>(ex.rows.size());
  j.count("sim.requests", requests).num("sim.ipc", ipc / n);
  j.num("hmm.hbm_serve_rate", serve / n).num("hmm.overfetch", overfetch / n);
  j.count("hmm.page_faults", faults);
  hmm::HmmStats ms;
  mem::DramStats hs, ds;
  if (ex.system) {
    ms = ex.system->last_controller()->stats();
    hs = ex.system->last_hbm()->stats();
    ds = ex.system->last_dram()->stats();
  }
  j.count("hmm.migrations", ms.migrations).count("hmm.evictions", ms.evictions);
  j.count("hmm.mode_switches", ms.mode_switches).count("hmm.swaps", ms.swaps);
  j.count("mem.beats", hs.beats + ds.beats);
  j.count("mem.hbm_bytes", hbm).count("mem.dram_bytes", dram);
  j.count("mem.fill_bytes", cls(mem::TrafficClass::kFill));
  j.count("mem.writeback_bytes", cls(mem::TrafficClass::kWriteback));
  j.count("mem.migration_bytes", cls(mem::TrafficClass::kMigration));
  j.count("mem.metadata_bytes", cls(mem::TrafficClass::kMetadata));
  j.num("mem.hbm_row_hit_rate", hs.row_hit_rate());
  j.num("mem.dram_row_hit_rate", ds.row_hit_rate());
}

// ---- paging probe ----------------------------------------------------------

std::vector<Addr> stream_addresses(const std::string& path) {
  std::vector<Addr> out;
  for (const auto& rec : trace::read_trace(path)) out.push_back(rec.addr);
  return out;
}

/// Host seconds a fresh PagingModel takes to touch every address.
double probe_paging(const std::vector<Addr>& addrs,
                    const hmm::PagingConfig& pc) {
  hmm::PagingModel model(pc);
  const auto t0 = Clock::now();
  for (const Addr a : addrs) model.touch(a);
  return since(t0);
}

struct PagingProbe {
  double seconds = 0;
  u64 touches = 0;
};

/// Replays each cell's miss stream through a fresh PagingModel under the
/// cell's own PagingConfig. paper_matrix probes each profile's DRAM-only
/// stream once per distinct design paging configuration and weights it by
/// the number of designs sharing that configuration.
PagingProbe run_paging_probe(const Args& a, const Plan& plan,
                             const sim::SystemConfig& cfg,
                             const Execution& ex) {
  PagingProbe p;
  if (!plan.matrix) {
    const auto addrs = stream_addresses(replay_path(a));
    p.seconds =
        probe_paging(addrs, ex.system->last_controller()->paging().config());
    p.touches = addrs.size();
    return p;
  }
  using Key = std::tuple<bool, u64, u64, Tick>;
  std::map<Key, std::pair<hmm::PagingConfig, u64>> configs;
  for (const auto& d : plan.designs) {
    mem::DramDevice hbm(cfg.hbm);
    mem::DramDevice dram(cfg.dram);
    const auto design = baselines::make_design(d, hbm, dram, cfg.paging);
    const hmm::PagingConfig& pc = design->paging().config();
    auto& slot = configs[Key{pc.enabled, pc.visible_bytes, pc.os_page_bytes,
                             pc.fault_penalty}];
    slot.first = pc;
    ++slot.second;
  }
  for (const auto& w : plan.profiles) {
    const auto addrs = stream_addresses(probe_path(a, w.name));
    for (const auto& [key, cfg_count] : configs) {
      p.seconds += probe_paging(addrs, cfg_count.first) *
                   static_cast<double>(cfg_count.second);
      p.touches += addrs.size() * cfg_count.second;
    }
  }
  return p;
}

// ---- modes -----------------------------------------------------------------

int mode_prepare(const Args& a, const Plan& plan) {
  const sim::SystemConfig cfg = base_config(a.seed);
  const auto t0 = Clock::now();
  if (plan.replay) {
    capture(cfg, plan.designs[0], plan.profiles[0],
            budget(plan.profiles[0], 100), replay_path(a));
  } else if (a.probe_streams) {
    // The generator's stream does not depend on the design; DRAM-only is
    // the cheapest cell to record it from.
    for (const auto& w : plan.profiles) {
      capture(cfg, "DRAM-only", w, budget(w, plan.len_pct),
              probe_path(a, w.name));
    }
  }
  std::cout << Json().str("mode", "prepare").num("prepare_s", since(t0)).text()
            << "\n";
  return 0;
}

int mode_rep(const Args& a, const Plan& plan) {
  const sim::SystemConfig cfg = base_config(a.seed);
  const std::string path = replay_path(a);
  // One set-up pass per process; run.py reports the median over processes.
  const double setup_s = setup_pass(plan, cfg, path).total();

  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const auto t0 = Clock::now();
  const Execution ex = execute(plan, cfg, path);
  const double wall = since(t0);
  const double cpu = cpu_seconds(RUSAGE_SELF) - cpu0;

  const auto failures = check_rows(plan, ex.rows);
  Json j;
  j.str("mode", "rep").num("wall_s", wall).num("cpu_s", cpu);
  j.num("setup_s", setup_s).count("sim_instructions", ex.sim_instructions);
  j.num("peak_rss_mb", peak_rss_mib());
  j.count("cells", ex.rows.size());
  j.count("expected_cells", plan.designs.size() * plan.profiles.size());
  j.raw("failures", json_list(failures));
  j.str("sim_digest", perfbench::sim_digest(ex.rows));
  j.raw("build", build_json(perfbench::this_build()));
  std::cout << j.text() << "\n";
  return 0;
}

int mode_traced(const Args& a, const Plan& plan) {
  const sim::SystemConfig cfg = base_config(a.seed);
  const std::string path = replay_path(a);

  prof::reset();
  prof::enable(true);
  const auto t0 = Clock::now();
  const SetupTimes setup = setup_pass(plan, cfg, path);
  const double setup_s = since(t0);
  const auto t1 = Clock::now();
  const Execution ex = execute(plan, cfg, path);
  const double run_s = since(t1);
  const double wall = since(t0);
  prof::enable(false);
  const prof::PhaseTotals pt = prof::aggregate();

  const auto phase_s = [&](prof::Phase p) {
    return static_cast<double>(pt.ns[static_cast<std::size_t>(p)]) * 1e-9;
  };
  const auto calls = [&](prof::Phase p) {
    return pt.calls[static_cast<std::size_t>(p)];
  };
  const double trace_s = phase_s(prof::Phase::kTraceGen);
  const double hmm_s = phase_s(prof::Phase::kHmmAccess);
  const double mem_s = phase_s(prof::Phase::kDeviceTiming);
  const double commit_s =
      phase_s(prof::Phase::kStatsCommit) + phase_s(prof::Phase::kIo);

  perfbench::Closure c;
  c.setup_s = setup_s;
  c.layers_s = trace_s + hmm_s + mem_s + commit_s;
  c.reference_s = plan.matrix ? setup_s + ex.worker_cpu_s : wall;
  c.core_self_s = c.reference_s - c.setup_s - c.layers_s;

  const PagingProbe probe = run_paging_probe(a, plan, cfg, ex);
  const auto per = [](double s, u64 n) {
    return n ? s * 1e9 / static_cast<double>(n) : 0.0;
  };

  auto failures = check_rows(plan, ex.rows);
  if (auto why = perfbench::check_closure(c); !why.empty()) {
    failures.push_back(why);
  }

  Json m;
  m.num("trace.self_s", trace_s);
  m.count("trace.records", calls(prof::Phase::kTraceGen));
  m.num("trace.ns_per_record", per(trace_s, calls(prof::Phase::kTraceGen)));
  m.num("trace.validate_s", setup.validate_s);
  m.num("hmm.self_s", hmm_s);
  m.count("hmm.requests", calls(prof::Phase::kHmmAccess));
  m.num("hmm.ns_per_request", per(hmm_s, calls(prof::Phase::kHmmAccess)));
  m.num("hmm.paging_s", probe.seconds);
  m.num("hmm.paging_ns_per_touch", per(probe.seconds, probe.touches));
  m.num("policy.self_s", hmm_s - probe.seconds);
  m.num("mem.self_s", mem_s);
  m.count("mem.accesses", calls(prof::Phase::kDeviceTiming));
  m.num("mem.ns_per_access", per(mem_s, calls(prof::Phase::kDeviceTiming)));
  m.num("sim.core_self_s", c.core_self_s).num("sim.stats_commit_s", commit_s);
  m.count("matrix.cells", plan.matrix ? ex.rows.size() : 0);
  m.num("setup.design_s", setup.design_s).num("setup.trace_s", setup.trace_s);
  add_sim_counts(m, ex);
  add_paper_values(m, plan, ex.rows);

  Json j;
  j.str("mode", "traced").num("traced_wall_s", wall).num("traced_run_s", run_s);
  j.num("closure_reference_s", c.reference_s);
  j.num("worker_cpu_s", ex.worker_cpu_s);
  j.count("cells", ex.rows.size());
  j.count("expected_cells", plan.designs.size() * plan.profiles.size());
  j.raw("failures", json_list(failures));
  j.str("sim_digest", perfbench::sim_digest(ex.rows));
  j.raw("metrics", m.text());
  std::cout << j.text() << "\n";
  return 0;
}

// ---- self-test -------------------------------------------------------------

int mode_self_test() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++bad;
  };

  sim::SystemConfig cfg = base_config(42);
  cfg.warmup_ratio = 0;
  sim::System sys(cfg);
  const sim::RunResult good =
      sys.run("Bumblebee", trace::WorkloadProfile::by_name("mcf"), 2'000'000);
  expect(perfbench::check_cell(good).empty(), "a real cell passes check_cell");
  expect(good.hbm_bytes > 0 && good.dram_bytes > 0,
         "the real cell moves bytes on both devices");

  auto trips = [&](const std::string& what, auto mutate) {
    sim::RunResult r = good;
    mutate(r);
    expect(!perfbench::check_cell(r).empty(), "check_cell trips on " + what);
  };
  trips("zero misses", [](sim::RunResult& r) { r.misses = 0; });
  trips("serve rate above 1",
        [](sim::RunResult& r) { r.hbm_serve_rate = 1.5; });
  trips("negative serve rate",
        [](sim::RunResult& r) { r.hbm_serve_rate = -0.1; });
  trips("NaN serve rate",
        [](sim::RunResult& r) { r.hbm_serve_rate = std::nan(""); });
  trips("HBM class bytes off total",
        [](sim::RunResult& r) { r.hbm_class_bytes[1] += 64; });
  trips("DRAM class bytes off total",
        [](sim::RunResult& r) { r.dram_bytes += 64; });

  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<std::string> workloads = {"mcf", "lbm"};
  std::vector<sim::RunResult> rows;
  for (const auto& w : workloads) {
    for (const auto& d : designs) {
      sim::RunResult r = good;
      r.design = d;
      r.workload = w;
      rows.push_back(r);
    }
  }
  expect(perfbench::check_matrix_order(rows, designs, workloads).empty(),
         "a matrix in matrix order passes");
  auto swapped = rows;
  std::swap(swapped[1], swapped[2]);
  expect(!perfbench::check_matrix_order(swapped, designs, workloads).empty(),
         "matrix check trips on rows out of order");
  auto short_rows = rows;
  short_rows.pop_back();
  expect(!perfbench::check_matrix_order(short_rows, designs, workloads).empty(),
         "matrix check trips on a missing row");

  const std::string digest = perfbench::sim_digest(rows);
  expect(digest == perfbench::sim_digest(rows), "digest repeats on equal rows");
  auto changed = rows;
  changed[3].ipc *= 1.0000001;
  expect(digest != perfbench::sim_digest(changed),
         "digest moves with one cell");
  expect(digest != perfbench::sim_digest(swapped),
         "digest moves with row order");

  perfbench::Closure c{10.0, 1.0, 7.0, 2.0};
  expect(perfbench::check_closure(c).empty(), "a closed breakdown passes");
  c.core_self_s = -0.5;
  c.reference_s = 7.5;
  expect(!perfbench::check_closure(c).empty(),
         "closure trips on a negative remainder");
  c = perfbench::Closure{10.0, 1.0, 7.0, 1.0};
  expect(!perfbench::check_closure(c).empty(),
         "closure trips when the parts miss the reference");

  perfbench::BuildInfo b;
  expect(perfbench::build_refusal(b).empty(), "an optimised build is accepted");
  b.asserts = true;
  expect(!perfbench::build_refusal(b).empty(), "an assert build is refused");
  b = perfbench::BuildInfo{};
  b.bb_checks = true;
  expect(!perfbench::build_refusal(b).empty(), "a BB_CHECKS build is refused");
  b = perfbench::BuildInfo{};
  b.sanitizers = true;
  expect(!perfbench::build_refusal(b).empty(), "a sanitizer build is refused");

  std::cout << Json()
                   .str("mode", "self-test")
                   .count("failed", static_cast<u64>(bad))
                   .text()
            << "\n";
  return bad == 0 ? 0 : kExitFailed;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.mode == "self-test") return mode_self_test();
  if (a.mode != "prepare" && a.mode != "rep" && a.mode != "traced") {
    std::cerr << "usage: bb_perfbench prepare|rep|traced|self-test "
                 "--workload=W --seed=N --work=DIR\n";
    return kExitUsage;
  }
  if (a.work.empty()) throw std::invalid_argument("--work is required");
  const perfbench::BuildInfo build = perfbench::this_build();
  std::cerr << "build " << build_json(build) << "\n";
  if (const auto why = perfbench::build_refusal(build); !why.empty()) {
    std::cerr << "bb_perfbench: refusing to report numbers: " << why << "\n";
    return kExitRefused;
  }
  const Plan plan = make_plan(a.workload);
  if (a.mode == "prepare") return mode_prepare(a, plan);
  if (a.mode == "rep") return mode_rep(a, plan);
  return mode_traced(a, plan);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bb_perfbench: " << e.what() << "\n";
    return kExitFailed;
  }
}
