// Trace-replay acceptance tests: replay streams a trace many times larger
// than one chunk, the capture sink must round-trip a synthetic run, and
// replay matrices must be --jobs independent like every other matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "sim/experiment.h"
#include "trace/stream.h"
#include "trace/workload.h"

namespace bb::sim {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

struct TempTrace {
  explicit TempTrace(const char* name) : path(tmp_path(name)) {}
  ~TempTrace() { std::remove(path.c_str()); }
  std::string path;
};

// A v2 trace whose record count is 16x the reader's chunk size, so replay
// demonstrably serves more data than it ever buffers.
void write_big_trace(const std::string& path, std::size_t records,
                     u32 chunk_records) {
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("mcf"), 99);
  trace::TraceWriterOptions w;
  w.chunk_records = chunk_records;
  ASSERT_TRUE(trace::save_trace_v2(path, gen.take(records), w));
}

TEST(Replay, StreamsTraceManyChunksLong) {
  TempTrace t("accept.bbtrace");
  write_big_trace(t.path, 4096, 256);
  const auto info = trace::trace_info(t.path);
  ASSERT_GE(info.records / info.max_chunk_records, 4u);

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = info.inst_gap_total;
  ExperimentRunner::ReplayMatrixOptions ropts;
  ropts.path = t.path;
  ropts.label = "accept";
  ExperimentRunner runner;
  runner.run_replay_matrix({"DRAM-only", "Bumblebee"}, ropts, opts);

  ASSERT_EQ(runner.results().size(), 2u);
  for (const RunResult& r : runner.results()) {
    EXPECT_EQ(r.workload, "accept");
    EXPECT_GT(r.misses, 0u);
  }
}

TEST(Replay, JobsDoNotChangeReplayResults) {
  TempTrace t("jobs.bbtrace");
  write_big_trace(t.path, 2048, 256);
  const auto info = trace::trace_info(t.path);

  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee",
                                            "Hybrid2"};
  ExperimentRunner::ReplayMatrixOptions ropts;
  ropts.path = t.path;
  ropts.label = "jobs";

  std::string csv_by_jobs[2];
  for (int i = 0; i < 2; ++i) {
    RunMatrixOptions opts;
    opts.jobs = i == 0 ? 1u : 4u;
    opts.instructions = info.inst_gap_total;
    ExperimentRunner runner;
    runner.run_replay_matrix(designs, ropts, opts);
    std::ostringstream os;
    runner.write_csv(os);
    csv_by_jobs[i] = os.str();
  }
  EXPECT_EQ(csv_by_jobs[0], csv_by_jobs[1]);
}

TEST(Replay, CaptureRoundTripsASyntheticRun) {
  TempTrace t("capture.bbtrace");
  trace::TraceCaptureSink sink;
  sink.open(t.path);

  SystemConfig cfg;
  cfg.warmup_ratio = 0.0;  // capture exactly the measured stream
  cfg.capture = &sink;
  ExperimentRunner capture_runner(cfg);
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 500'000;
  capture_runner.run_matrix(
      {"Bumblebee"}, {trace::WorkloadProfile::by_name("mcf")}, opts);
  ASSERT_TRUE(sink.close());
  ASSERT_EQ(capture_runner.results().size(), 1u);
  const u64 captured = sink.records();
  EXPECT_EQ(captured, capture_runner.results()[0].misses);

  // Replaying the capture for one full pass re-issues exactly the
  // captured requests: same record count, same byte volume.
  const auto info = trace::trace_info(t.path);
  EXPECT_EQ(info.records, captured);
  SystemConfig replay_cfg;
  replay_cfg.warmup_ratio = 0.0;
  ExperimentRunner replay_runner(replay_cfg);
  RunMatrixOptions replay_opts;
  replay_opts.jobs = 1;
  replay_opts.instructions = info.inst_gap_total;
  ExperimentRunner::ReplayMatrixOptions ropts;
  ropts.path = t.path;
  replay_runner.run_replay_matrix({"Bumblebee"}, ropts, replay_opts);
  ASSERT_EQ(replay_runner.results().size(), 1u);
  EXPECT_EQ(replay_runner.results()[0].misses, captured);
}

TEST(Replay, RequiresExplicitBudget) {
  TempTrace t("nobudget.bbtrace");
  write_big_trace(t.path, 256, 64);
  ExperimentRunner runner;
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 0;
  ExperimentRunner::ReplayMatrixOptions ropts;
  ropts.path = t.path;
  EXPECT_THROW(runner.run_replay_matrix({"Bumblebee"}, ropts, opts),
               std::invalid_argument);
}

TEST(Replay, BadTraceFailsBeforeAnySimulation) {
  ExperimentRunner runner;
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 1000;
  ExperimentRunner::ReplayMatrixOptions ropts;
  ropts.path = tmp_path("never-written.bbtrace");
  EXPECT_THROW(runner.run_replay_matrix({"Bumblebee"}, ropts, opts),
               std::ios_base::failure);
  EXPECT_TRUE(runner.results().empty());
}

}  // namespace
}  // namespace bb::sim
