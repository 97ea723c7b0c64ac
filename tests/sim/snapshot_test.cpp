// In-process kill-and-resume coverage for the crash-tolerance layer: an
// interrupted run of any design resumed from its snapshot must reproduce
// the uninterrupted run's results exactly, corrupt snapshots must fail
// closed, the matrix watchdog must degrade exhausted cells to timed_out
// placeholder rows, and a journal must restore rows only into the sweep
// that wrote them. The process-level SIGKILL variants live in
// tools/check_crash_recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "bumblebee/config.h"
#include "common/snapshot.h"
#include "common/trace_event.h"
#include "fault/fault.h"
#include "sim/core_model.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "trace/stream.h"

namespace bb::sim {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 64 * MiB;
  cfg.dram.capacity_bytes = 640 * MiB;
  cfg.core.cores = 2;
  cfg.warmup_ratio = 0.5;
  return cfg;
}

SystemConfig snapshot_config(const char* subdir) {
  SystemConfig cfg = fast_config();
  cfg.snapshot.dir = std::string(::testing::TempDir()) + "/" + subdir;
  cfg.snapshot.interval_records = 256;
  // bbsim creates the directory for its users; in-process callers own it.
  std::filesystem::create_directories(cfg.snapshot.dir);
  return cfg;
}

/// The snapshot file System uses for a plain run cell (kind "run",
/// non-alphanumerics in the design/workload mapped to '_').
std::string snap_path(const SystemConfig& cfg, std::string design,
                      const std::string& workload) {
  for (char& c : design) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return cfg.snapshot.dir + "/run__" + design + "__" + workload + ".bbsnap";
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.energy_mj, b.energy_mj);
  EXPECT_DOUBLE_EQ(a.hbm_serve_rate, b.hbm_serve_rate);
  EXPECT_DOUBLE_EQ(a.mean_latency_ns, b.mean_latency_ns);
  EXPECT_DOUBLE_EQ(a.latency_p99_ns, b.latency_p99_ns);
  EXPECT_DOUBLE_EQ(a.latency_p999_ns, b.latency_p999_ns);
}

/// Poll at which the every-layer tests stop a run: about half way through
/// the 400 k-instruction mcf cell, so the layers carry the first half's
/// state.
constexpr int kEveryLayerStopAt = 30;

/// Every optional snapshot layer on: FR-FCFS request queues on both
/// devices, the mixed fault profile, an epoch sampler and the event trace.
SystemConfig every_layer_config(const char* subdir) {
  SystemConfig cfg = snapshot_config(subdir);
  cfg.hbm.queue = mem::QueueConfig::fr_fcfs();
  cfg.dram.queue = mem::QueueConfig::fr_fcfs();
  cfg.fault = fault::FaultConfig::profile("mixed", 1e-3);
  cfg.obs.epoch.every_requests = 512;
  cfg.obs.trace = true;
  return cfg;
}

/// The epoch rows and events a run buffered, equal in every field.
void expect_identical_artifacts(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.artifacts == nullptr, b.artifacts == nullptr);
  if (a.artifacts == nullptr) return;
  const RunArtifacts& x = *a.artifacts;
  const RunArtifacts& y = *b.artifacts;
  EXPECT_EQ(x.epoch_columns, y.epoch_columns);
  ASSERT_EQ(x.epochs.size(), y.epochs.size());
  for (std::size_t i = 0; i < x.epochs.size(); ++i) {
    EXPECT_EQ(x.epochs[i].epoch, y.epochs[i].epoch);
    EXPECT_EQ(x.epochs[i].start_tick, y.epochs[i].start_tick);
    EXPECT_EQ(x.epochs[i].end_tick, y.epochs[i].end_tick);
    EXPECT_EQ(x.epochs[i].requests, y.epochs[i].requests);
    EXPECT_EQ(x.epochs[i].values, y.epochs[i].values);
  }
  ASSERT_EQ(x.events.size(), y.events.size());
  for (std::size_t i = 0; i < x.events.size(); ++i) {
    EXPECT_EQ(trace_event_to_json(x.events[i]),
              trace_event_to_json(y.events[i]));
  }
}

/// Interrupts the run at the `stop_at`-th record-boundary poll (a snapshot
/// is committed at the same boundary, just before the poll), then resumes
/// from that snapshot and requires results identical to an uninterrupted
/// run of the same cell.
void kill_and_resume(const char* design, const SystemConfig& cfg,
                     int stop_at = 3) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  constexpr u64 kInstructions = 400'000;

  SystemConfig plain = cfg;
  plain.snapshot = SnapshotConfig{};
  System reference(plain);
  const RunResult want = reference.run(design, w, kInstructions);

  System sys(cfg);
  int polls = 0;
  sys.set_interrupt([&polls, stop_at] { return ++polls >= stop_at; });
  EXPECT_THROW(sys.run(design, w, kInstructions), RunInterrupted);
  EXPECT_TRUE(snap::file_exists(snap_path(cfg, design, "mcf")));

  sys.set_interrupt({});
  sys.allow_restore_once();
  const RunResult got = sys.run(design, w, kInstructions);
  expect_identical(want, got);
  expect_identical_artifacts(want, got);
  // A finished cell leaves no snapshot behind.
  EXPECT_FALSE(snap::file_exists(snap_path(cfg, design, "mcf")));
}

TEST(SystemSnapshot, KillAndResumeDramOnlyIsExact) {
  kill_and_resume("DRAM-only", snapshot_config("snap_dramonly"));
}

TEST(SystemSnapshot, KillAndResumeBumblebeeIsExact) {
  kill_and_resume("Bumblebee", snapshot_config("snap_bumblebee"));
}

TEST(SystemSnapshot, KillAndResumeEveryLayerIsExact) {
  // Request queues, fault state, epoch sampler and event trace all ride
  // in the snapshot and must resume exactly, for both snapshot designs.
  for (const char* design : {"DRAM-only", "Bumblebee"}) {
    SCOPED_TRACE(design);
    kill_and_resume(design, every_layer_config("snap_every_layer_resume"),
                    kEveryLayerStopAt);
  }
}

/// FNV-1a 64 of a file's bytes.
u64 file_fnv1a(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  u64 h = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A replay cell interrupted after its trace reader looped past a lap
// boundary resumes from its snapshot to the uninterrupted result: the
// reader's serialized position (laps, records into the lap) restores too.
TEST(SystemSnapshot, KillAndResumeReplayPastLapIsExact) {
  const std::string path =
      std::string(::testing::TempDir()) + "/snap_replay.bbtrace";
  {
    trace::TraceGenerator gen(trace::WorkloadProfile::by_name("mcf"), 99);
    trace::TraceWriterOptions w;
    w.chunk_records = 64;
    ASSERT_TRUE(trace::save_trace_v2(path, gen.take(512), w));
  }
  const u64 instructions = 4 * trace::trace_info(path).inst_gap_total;
  const SystemConfig cfg = snapshot_config("snap_replay");

  SystemConfig plain = cfg;
  plain.snapshot = SnapshotConfig{};
  System reference(plain);
  trace::StreamingTraceReader whole(path);
  const RunResult want =
      reference.run_replay("Bumblebee", whole, "replay", instructions);
  ASSERT_GE(whole.laps(), 2u);

  // Polls (and snapshots) fall every 256 records, so the third lands 256
  // records into the trace's second lap.
  System sys(cfg);
  trace::StreamingTraceReader cut(path);
  int polls = 0;
  sys.set_interrupt([&polls] { return ++polls >= 3; });
  EXPECT_THROW(sys.run_replay("Bumblebee", cut, "replay", instructions),
               RunInterrupted);
  EXPECT_EQ(cut.laps(), 1u);
  const std::string snap =
      cfg.snapshot.dir + "/replay__Bumblebee__replay.bbsnap";
  EXPECT_TRUE(snap::file_exists(snap));

  sys.set_interrupt({});
  sys.allow_restore_once();
  trace::StreamingTraceReader resumed(path);
  const RunResult got =
      sys.run_replay("Bumblebee", resumed, "replay", instructions);
  expect_identical(want, got);
  EXPECT_EQ(ResultJournal::line(got), ResultJournal::line(want));
  EXPECT_FALSE(snap::file_exists(snap));
  std::remove(path.c_str());
}

TEST(SystemSnapshot, BumblebeeSnapshotBytesArePinned) {
  // The snapshot a Bumblebee run commits at its third poll, byte for byte:
  // a change to how the controller stores its per-set state (PRT, BLEs,
  // block bitmaps, hot tables) must not change the stream it writes.
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  SystemConfig cfg = snapshot_config("snap_pinned");
  System sys(cfg);
  int polls = 0;
  sys.set_interrupt([&polls] { return ++polls >= 3; });
  EXPECT_THROW(sys.run("Bumblebee", w, 400'000), RunInterrupted);
  const std::string path = snap_path(cfg, "Bumblebee", "mcf");
  ASSERT_TRUE(snap::file_exists(path));
  EXPECT_EQ(file_fnv1a(path), 0x079318a2eaeda2f8ULL);
  std::remove(path.c_str());
}

TEST(SystemSnapshot, EveryLayerSnapshotBytesArePinned) {
  // The same pin with every optional layer in the stream: the request
  // queues' write queues and MSHRs, the fault model's row health, the
  // epoch sampler's rows and cursor and the buffered trace events.
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  const std::pair<const char*, u64> pins[] = {
      {"DRAM-only", 0x1e004552b76da41fULL},
      {"Bumblebee", 0xcacc672aef6bbe3fULL},
  };
  for (const auto& [design, hash] : pins) {
    SCOPED_TRACE(design);
    SystemConfig cfg = every_layer_config("snap_every_layer_pinned");
    System sys(cfg);
    int polls = 0;
    sys.set_interrupt([&polls] { return ++polls >= kEveryLayerStopAt; });
    EXPECT_THROW(sys.run(design, w, 400'000), RunInterrupted);
    const std::string path = snap_path(cfg, design, "mcf");
    ASSERT_TRUE(snap::file_exists(path));
    EXPECT_EQ(file_fnv1a(path), hash);
    std::remove(path.c_str());
  }
}

TEST(SystemSnapshot, UninterruptedRunWithSnapshotsMatchesPlainRun) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  System plain(fast_config());
  const RunResult want = plain.run("Bumblebee", w, 300'000);
  System snapped(snapshot_config("snap_clean"));
  const RunResult got = snapped.run("Bumblebee", w, 300'000);
  expect_identical(want, got);
}

TEST(SystemSnapshot, EveryDesignResumesToIdenticalOutputs) {
  // Every design snapshots. With request queues, faults, epoch sampling
  // and the event trace on, a run interrupted at a record boundary and
  // resumed from its snapshot writes the same JSON, epoch CSV and event
  // trace as an uninterrupted run, byte for byte.
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  constexpr u64 kInstructions = 400'000;
  SystemConfig cfg = every_layer_config("snap_every_design");
  // Hybrid2 needs HBM beyond its fixed 64 MiB cHBM slice.
  cfg.hbm.capacity_bytes = 128 * MiB;
  cfg.dram.capacity_bytes = 1280 * MiB;
  SystemConfig plain = cfg;
  plain.snapshot = SnapshotConfig{};
  const auto outputs = [](const RunResult& r) {
    ExperimentRunner runner;
    runner.add(r);
    std::ostringstream json, epochs, events;
    runner.write_json(json);
    runner.write_epoch_csv(epochs);
    runner.write_trace(events, ExperimentRunner::TraceFormat::kJsonl);
    return std::vector<std::string>{json.str(), epochs.str(), events.str()};
  };
  ASSERT_EQ(baselines::all_design_names().size(), 19u);
  for (const std::string& design : baselines::all_design_names()) {
    SCOPED_TRACE(design);
    System reference(plain);
    const auto want = outputs(reference.run(design, w, kInstructions));
    ASSERT_FALSE(want[1].empty());
    ASSERT_FALSE(want[2].empty());

    System sys(cfg);
    int polls = 0;
    sys.set_interrupt([&polls] { return ++polls >= kEveryLayerStopAt; });
    EXPECT_THROW(sys.run(design, w, kInstructions), RunInterrupted);
    ASSERT_TRUE(snap::file_exists(snap_path(cfg, design, "mcf")));
    sys.set_interrupt({});
    sys.allow_restore_once();
    const auto got = outputs(sys.run(design, w, kInstructions));
    EXPECT_EQ(got[0], want[0]) << "write_json";
    EXPECT_EQ(got[1], want[1]) << "epoch CSV";
    EXPECT_EQ(got[2], want[2]) << "event trace";
    EXPECT_FALSE(snap::file_exists(snap_path(cfg, design, "mcf")));
  }
}

TEST(SystemSnapshot, CorruptSnapshotFailsClosed) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  SystemConfig cfg = snapshot_config("snap_corrupt");
  System sys(cfg);
  int polls = 0;
  sys.set_interrupt([&polls] { return ++polls >= 2; });
  EXPECT_THROW(sys.run("DRAM-only", w, 400'000), RunInterrupted);

  const std::string path = snap_path(cfg, "DRAM-only", "mcf");
  ASSERT_TRUE(snap::file_exists(path));
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  sys.set_interrupt({});
  sys.allow_restore_once();
  EXPECT_THROW(sys.run("DRAM-only", w, 400'000), snap::SnapshotError);
  std::remove(path.c_str());
}

TEST(SystemSnapshot, RestoreUnderDifferentQueueDepthFailsClosed) {
  // The fingerprint covers each device's queue shape: a snapshot taken
  // with 32-entry write queues must not resume a run with 8-entry ones.
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  SystemConfig deep = snapshot_config("snap_queue_depth");
  mem::QueueConfig q = mem::QueueConfig::fr_fcfs();
  q.queue_depth = 32;
  q.write_high_watermark = 24;
  q.write_low_watermark = 8;
  deep.hbm.queue = q;
  deep.dram.queue = q;
  System writer(deep);
  int polls = 0;
  writer.set_interrupt([&polls] { return ++polls >= 2; });
  EXPECT_THROW(writer.run("DRAM-only", w, 400'000), RunInterrupted);
  const std::string path = snap_path(deep, "DRAM-only", "mcf");
  ASSERT_TRUE(snap::file_exists(path));

  SystemConfig shallow = deep;
  q.queue_depth = 8;
  q.write_high_watermark = 6;
  q.write_low_watermark = 2;
  shallow.hbm.queue = q;
  shallow.dram.queue = q;
  System reader(shallow);
  reader.allow_restore_once();
  EXPECT_THROW(reader.run("DRAM-only", w, 400'000), snap::SnapshotError);
  std::remove(path.c_str());
}

TEST(SystemSnapshot, RestoreUnderDifferentFaultRateFailsClosed) {
  // The fingerprint covers both devices' fault rates, the ECC and DUE
  // recovery knobs and the OS paging cost: a snapshot taken under one of
  // them must not resume a run under another.
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  SystemConfig base = snapshot_config("snap_fault_rate");
  base.fault = fault::FaultConfig::profile("mixed", 1e-3);
  System writer(base);
  int polls = 0;
  writer.set_interrupt([&polls] { return ++polls >= 2; });
  EXPECT_THROW(writer.run("DRAM-only", w, 400'000), RunInterrupted);
  const std::string path = snap_path(base, "DRAM-only", "mcf");
  ASSERT_TRUE(snap::file_exists(path));

  const std::vector<std::pair<const char*, void (*)(SystemConfig&)>> edits = {
      {"fault rate", [](SystemConfig& c) {
         c.fault = fault::FaultConfig::profile("mixed", 5e-3);
       }},
      {"dram-only rate", [](SystemConfig& c) {
         c.fault.dram.transient_per_access *= 2;
       }},
      {"due_fraction", [](SystemConfig& c) { c.fault.due_fraction = 0.5; }},
      {"ce_latency", [](SystemConfig& c) { c.fault.ce_latency *= 2; }},
      {"retire_row_after_ces",
       [](SystemConfig& c) { c.fault.retire_row_after_ces = 9; }},
      {"max_due_retries", [](SystemConfig& c) { c.fault.max_due_retries = 7; }},
      {"due_retry_backoff",
       [](SystemConfig& c) { c.fault.due_retry_backoff *= 2; }},
      {"os_page_bytes",
       [](SystemConfig& c) { c.paging.os_page_bytes = 2 * MiB; }},
      {"fault_penalty", [](SystemConfig& c) { c.paging.fault_penalty *= 2; }},
  };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    SystemConfig changed = base;
    edit(changed);
    System reader(changed);
    reader.allow_restore_once();
    EXPECT_THROW(reader.run("DRAM-only", w, 400'000), snap::SnapshotError);
  }
  // The unchanged configuration still restores the same snapshot.
  System reader(base);
  reader.allow_restore_once();
  EXPECT_NO_THROW(reader.run("DRAM-only", w, 400'000));
  std::remove(path.c_str());
}

TEST(SystemSnapshot, RestoreUnderDifferentBumblebeeConfigFailsClosed) {
  // Design-space points share the Bumblebee controller; the fingerprint
  // covers their knobs, so a snapshot taken under one zombie window must
  // not resume a run under another.
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  SystemConfig cfg = snapshot_config("snap_bumblebee_knobs");
  bumblebee::BumblebeeConfig narrow;
  narrow.zombie_window = 256;
  bumblebee::BumblebeeConfig wide = narrow;
  wide.zombie_window = 4096;

  System writer(cfg);
  int polls = 0;
  writer.set_interrupt([&polls] { return ++polls >= 2; });
  EXPECT_THROW(writer.run_bumblebee(narrow, w, 400'000), RunInterrupted);
  const std::string path = snap_path(cfg, "Bumblebee", "mcf");
  ASSERT_TRUE(snap::file_exists(path));

  System reader(cfg);
  reader.allow_restore_once();
  EXPECT_THROW(reader.run_bumblebee(wide, w, 400'000), snap::SnapshotError);
  System same(cfg);
  same.allow_restore_once();
  EXPECT_NO_THROW(same.run_bumblebee(narrow, w, 400'000));
  std::remove(path.c_str());

  // In a labelled matrix each point names its controller, so parallel
  // points write separate snapshot files.
  ExperimentRunner runner(cfg);
  RunMatrixOptions opts;
  opts.jobs = 2;
  opts.instructions = 400'000;
  opts.cell_timeout_s = 1e-9;  // each cell stops at its first checkpoint
  runner.run_bumblebee_matrix({{"zw256", narrow}, {"zw4096", wide}}, {w},
                              opts);
  ASSERT_EQ(runner.results().size(), 2u);
  for (const char* label : {"zw256", "zw4096"}) {
    const std::string point = snap_path(cfg, label, "mcf");
    EXPECT_TRUE(snap::file_exists(point)) << point;
    std::remove(point.c_str());
  }
  EXPECT_FALSE(snap::file_exists(path));
}

TEST(Watchdog, ExhaustedCellCommitsTimedOutPlaceholder) {
  ExperimentRunner runner(snapshot_config("snap_watchdog"));
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 400'000;
  opts.cell_timeout_s = 1e-9;  // trips at the first record-boundary poll
  opts.cell_retries = 1;
  runner.run_matrix({"DRAM-only", "Bumblebee"},
                    {trace::WorkloadProfile::by_name("mcf")}, opts);
  ASSERT_EQ(runner.results().size(), 2u);
  for (const RunResult& r : runner.results()) {
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.workload, "mcf");
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_DOUBLE_EQ(r.ipc, 0.0);
  }
  std::ostringstream csv;
  runner.write_csv(csv);
  EXPECT_NE(csv.str().find("timed_out"), std::string::npos);
}

TEST(Watchdog, GenerousDeadlineLeavesResultsUntouched) {
  const auto& w = trace::WorkloadProfile::by_name("mcf");
  System plain(fast_config());
  const RunResult want = plain.run("Bumblebee", w, 300'000);

  ExperimentRunner runner(snapshot_config("snap_nodeadline"));
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 300'000;
  opts.cell_timeout_s = 3600.0;
  runner.run_matrix({"Bumblebee"}, {w}, opts);
  ASSERT_EQ(runner.results().size(), 1u);
  EXPECT_FALSE(runner.results()[0].timed_out);
  expect_identical(want, runner.results()[0]);
  // No timed-out cell -> the placeholder column stays out of the schema.
  std::ostringstream csv;
  runner.write_csv(csv);
  EXPECT_EQ(csv.str().find("timed_out"), std::string::npos);
}

TEST(Watchdog, MixMatrixCommitsTimedOutPlaceholders) {
  // Both mix phases share the matrix watchdog: exhausted alone baselines
  // and co-runs commit timed_out placeholders, with the same bytes at
  // every --jobs, and a resumed sweep retries every one of them.
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("cachecap2")};
  std::string mix_json[2];
  std::string journal_text;
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ExperimentRunner runner(snapshot_config(
        jobs == 1 ? "snap_mix_watchdog_j1" : "snap_mix_watchdog_j4"));
    RunMatrixOptions opts;
    opts.jobs = jobs;
    opts.instructions = 200'000;
    opts.cell_timeout_s = 1e-9;  // trips at the first record-boundary poll
    opts.cell_retries = 1;
    std::vector<RunResult> alone;
    std::string lines;
    opts.on_result = [&](const RunResult& r) {
      if (!r.core_perf) alone.push_back(r);
      lines += ResultJournal::line(r) + "\n";
    };
    runner.run_mix_matrix(designs, mixes, opts);
    ASSERT_EQ(alone.size(), 4u);  // 2 designs x 2 workloads
    for (const RunResult& a : alone) {
      EXPECT_TRUE(a.timed_out) << a.design << "/" << a.workload;
      EXPECT_DOUBLE_EQ(a.ipc, 0.0);
    }
    ASSERT_EQ(runner.results().size(), 2u);
    for (const RunResult& r : runner.results()) {
      EXPECT_TRUE(r.timed_out);
      EXPECT_EQ(r.workload, "cachecap2");
      ASSERT_NE(r.core_perf, nullptr);
      EXPECT_TRUE(r.core_perf->empty());
    }
    std::ostringstream os;
    runner.write_mix_json(os);
    mix_json[jobs == 1 ? 0 : 1] = os.str();
    if (jobs == 1) journal_text = lines;
  }
  EXPECT_EQ(mix_json[0], mix_json[1]);
  EXPECT_NE(mix_json[0].find("\"timed_out\":1"), std::string::npos);

  // Resumed without a deadline, every placeholder, baseline or co-run, is
  // simulated again, and the co-runs score against real baselines.
  ResultJournal journal;
  std::istringstream is(journal_text);
  ASSERT_EQ(journal.load_stats(is).restored, 6u);
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 200'000;
  opts.resume = &journal;
  std::size_t fresh = 0;
  opts.on_result = [&](const RunResult&) { ++fresh; };
  ExperimentRunner resumed(fast_config());
  resumed.run_mix_matrix(designs, mixes, opts);
  EXPECT_EQ(fresh, 6u);
  ASSERT_EQ(resumed.results().size(), 2u);
  for (const RunResult& r : resumed.results()) {
    EXPECT_FALSE(r.timed_out);
    EXPECT_GT(r.weighted_speedup, 0.0);
  }
}

TEST(Journal, TimedOutRowsAreRetriedOnResume) {
  RunResult r;
  r.design = "Bumblebee";
  r.workload = "mcf";
  r.timed_out = true;
  ResultJournal journal;
  std::stringstream stream(ResultJournal::line(r) + "\n");
  EXPECT_EQ(journal.load_stats(stream).restored, 1u);
  // A timed-out placeholder never satisfies a resume lookup: the resumed
  // sweep re-runs the cell instead of propagating the zero row.
  EXPECT_EQ(journal.find("Bumblebee", "mcf"), nullptr);
}

TEST(Journal, LoadStatsCollectsWellFormedLines) {
  RunResult a;
  a.design = "A";
  a.workload = "mcf";
  a.ipc = 1.5;
  RunResult b;
  b.design = "B";
  b.workload = "mcf";
  b.ipc = 2.5;
  const std::string la = ResultJournal::line(a);
  const std::string lb = ResultJournal::line(b);
  std::stringstream stream(la + "\n" + lb + "\n" + lb.substr(0, 17));
  ResultJournal journal;
  std::vector<std::string> kept;
  const auto stats = journal.load_stats(stream, &kept);
  EXPECT_EQ(stats.restored, 2u);
  EXPECT_EQ(stats.malformed, 1u);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], la);
  EXPECT_EQ(kept[1], lb);
}

// Every key a journal line writes is read back: line -> load_stats ->
// line reproduces the bytes, for a run row with every optional group
// populated and for a two-core mix cell.
TEST(Journal, LinesRoundTripEveryField) {
  RunResult r;
  r.design = "Bumblebee \"v2\"";
  r.workload = "mcf";
  r.instructions = 123'456'789;
  r.misses = 4'321;
  r.ipc = 1.2345678901234567;
  r.hbm_bytes = 1'000'001;
  r.dram_bytes = 2'000'002;
  r.energy_mj = 0.125;
  r.hbm_serve_rate = 0.75;
  r.mean_latency_ns = 81.5;
  r.latency_p50_ns = 60.25;
  r.latency_p90_ns = 140.5;
  r.latency_p99_ns = 420.75;
  r.latency_p999_ns = 499.0625;
  r.mal_fraction = 0.0625;
  r.overfetch = 0.3;
  r.page_faults = 17;
  r.metadata_sram_bytes = 4096;
  r.ce_count = 1;
  r.ue_count = 2;
  r.due_retries = 3;
  r.due_unrecovered = 4;
  r.due_data_loss = 5;
  r.retired_rows = 6;
  r.retired_frames = 7;
  r.degraded_sets = 8;
  r.queueing_latency_avg = 12.5;
  r.read_queue_latency_avg = 10.25;
  r.req_queue_length_avg = 3.75;
  r.write_drain_count = 9;
  for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
    r.hbm_class_bytes[c] = 100 + c;
    r.dram_class_bytes[c] = 200 + c;
  }

  const std::string run_line = ResultJournal::line(r);
  {
    ResultJournal journal;
    std::istringstream is(run_line + "\n");
    ASSERT_EQ(journal.load_stats(is).restored, 1u);
    const RunResult* back = journal.find(r.design, r.workload);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(ResultJournal::line(*back), run_line);
  }

  // A watchdog placeholder is never restored, so its timed_out flag reads
  // back through find() skipping the row; the flag is the line's only
  // difference from the completed row.
  r.timed_out = true;
  const std::string timed_out_line = ResultJournal::line(r);
  std::string expected = run_line;
  expected.insert(expected.find("\"hbm_class_bytes\""), "\"timed_out\":1,");
  EXPECT_EQ(timed_out_line, expected);
  {
    ResultJournal journal;
    std::istringstream is(timed_out_line + "\n");
    ASSERT_EQ(journal.load_stats(is).restored, 1u);
    EXPECT_EQ(journal.find(r.design, r.workload), nullptr);
  }
  r.timed_out = false;

  RunResult m = r;
  m.workload = "mcf+lbm";
  m.weighted_speedup = 1.5;
  m.hmean_speedup = 0.75;
  m.max_slowdown = 1.625;
  m.core_perf = std::make_shared<std::vector<CorePerf>>();
  for (u32 c = 0; c < 2; ++c) {
    CorePerf core;
    core.core = c;
    core.workload = c == 0 ? "mcf" : "lbm";
    core.instructions = 1'000 + c;
    core.misses = 10 + c;
    core.ipc = 0.5 + c;
    core.hbm_serve_rate = 0.25 + c;
    core.mean_latency_ns = 70.5 + c;
    core.latency_p50_ns = 50.5 + c;
    core.latency_p99_ns = 300.5 + c;
    core.hbm_bytes = 64 + c;
    core.dram_bytes = 128 + c;
    core.alone_ipc = 0.875 + c;
    core.speedup = 0.625 + c;
    m.core_perf->push_back(core);
  }
  const std::string mix_line = ResultJournal::line(m);
  ResultJournal journal;
  std::istringstream is(mix_line + "\n");
  ASSERT_EQ(journal.load_stats(is).restored, 1u);
  EXPECT_EQ(journal.find(m.design, m.workload), nullptr);
  const RunResult* back = journal.find(m.design, m.workload, true);
  ASSERT_NE(back, nullptr);
  ASSERT_NE(back->core_perf, nullptr);
  ASSERT_EQ(back->core_perf->size(), 2u);
  EXPECT_EQ(ResultJournal::line(*back), mix_line);
}

/// A one-row journal of the sweep (cfg, opts), as bbsim writes it.
std::string sweep_journal(const SystemConfig& cfg,
                          const RunMatrixOptions& opts) {
  RunResult r;
  r.design = "DRAM-only";
  r.workload = "mcf";
  r.instructions = 200'037;
  return ResultJournal(sweep_hash(cfg, opts)).header() + "\n" +
         ResultJournal::line(r) + "\n";
}

/// Rows a journal of the sweep (cfg, opts) restores from `text`.
ResultJournal::LoadStats load_into_sweep(const std::string& text,
                                         const SystemConfig& cfg,
                                         const RunMatrixOptions& opts) {
  ResultJournal journal(sweep_hash(cfg, opts));
  std::istringstream is(text);
  const auto st = journal.load_stats(is);
  EXPECT_EQ(journal.find("DRAM-only", "mcf") != nullptr, st.restored > 0);
  return st;
}

TEST(Journal, SameSweepRestoresItsRows) {
  SystemConfig cfg;
  RunMatrixOptions opts;
  opts.instructions = 200'000;
  const auto st = load_into_sweep(sweep_journal(cfg, opts), cfg, opts);
  EXPECT_TRUE(st.header);
  EXPECT_FALSE(st.foreign);
  EXPECT_EQ(st.restored, 1u);
  // Snapshot, watchdog and scheduling settings never change a result.
  RunMatrixOptions sched = opts;
  sched.jobs = 4;
  sched.cell_timeout_s = 30;
  SystemConfig snapped = cfg;
  snapped.snapshot.dir = "snaps";
  snapped.snapshot.interval_records = 500;
  EXPECT_EQ(load_into_sweep(sweep_journal(cfg, opts), snapped, sched).restored,
            1u);
}

TEST(Journal, ChangedInstructionsRestoreNothing) {
  // The journal of a 200 k-instruction sweep must not answer a 1 M one.
  SystemConfig cfg;
  RunMatrixOptions short_run;
  short_run.instructions = 200'000;
  RunMatrixOptions long_run = short_run;
  long_run.instructions = 1'000'000;
  const auto st = load_into_sweep(sweep_journal(cfg, short_run), cfg, long_run);
  EXPECT_TRUE(st.foreign);
  EXPECT_EQ(st.restored, 0u);
  // So must a change to the derived-budget rule.
  RunMatrixOptions derived;
  RunMatrixOptions more_misses = derived;
  more_misses.target_misses *= 2;
  EXPECT_EQ(
      load_into_sweep(sweep_journal(cfg, derived), cfg, more_misses).restored,
      0u);
}

TEST(Journal, ChangedSeedRestoresNothing) {
  SystemConfig cfg;
  RunMatrixOptions opts;
  opts.instructions = 200'000;
  SystemConfig reseeded = cfg;
  reseeded.seed = cfg.seed + 1;
  const auto st = load_into_sweep(sweep_journal(cfg, opts), reseeded, opts);
  EXPECT_TRUE(st.foreign);
  EXPECT_EQ(st.restored, 0u);
}

TEST(Journal, SweepJournalWithoutHeaderRestoresNothing) {
  // A header-less journal (or one from before sweep headers) is foreign to
  // every sweep; a header-less reader still takes every line as a row.
  SystemConfig cfg;
  RunMatrixOptions opts;
  const std::string text = sweep_journal(cfg, opts);
  const std::string rows = text.substr(text.find('\n') + 1);
  const auto st = load_into_sweep(rows, cfg, opts);
  EXPECT_TRUE(st.foreign);
  EXPECT_EQ(st.restored, 0u);
  ResultJournal any;
  std::istringstream is(rows);
  EXPECT_EQ(any.load_stats(is).restored, 1u);
}

TEST(Quarantine, NamesNeverCollide) {
  const std::string base =
      std::string(::testing::TempDir()) + "/journal.jsonl";
  EXPECT_EQ(quarantine_name(base), base + ".corrupt");
  std::ofstream(base + ".corrupt") << "x";
  EXPECT_EQ(quarantine_name(base), base + ".corrupt.1");
  std::ofstream(base + ".corrupt.1") << "x";
  EXPECT_EQ(quarantine_name(base), base + ".corrupt.2");
  std::remove((base + ".corrupt").c_str());
  std::remove((base + ".corrupt.1").c_str());
}

}  // namespace
}  // namespace bb::sim
