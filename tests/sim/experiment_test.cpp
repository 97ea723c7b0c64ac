#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

namespace bb::sim {
namespace {

RunResult fake(const char* design, const char* workload, double ipc) {
  RunResult r;
  r.design = design;
  r.workload = workload;
  r.ipc = ipc;
  r.instructions = 1000;
  r.misses = 10;
  return r;
}

TEST(Experiment, ForDesignFilters) {
  ExperimentRunner ex;
  ex.add(fake("A", "mcf", 1.0));
  ex.add(fake("B", "mcf", 2.0));
  ex.add(fake("A", "xz", 3.0));
  const auto a = ex.for_design("A");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].workload, "mcf");
  EXPECT_EQ(a[1].workload, "xz");
}

TEST(Experiment, NormalizedAgainstBaseline) {
  ExperimentRunner ex;
  ex.add(fake("base", "mcf", 1.0));
  ex.add(fake("base", "xz", 2.0));
  ex.add(fake("A", "mcf", 3.0));
  ex.add(fake("A", "xz", 5.0));
  const auto n = ex.normalized("A", "base", metric_ipc);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_DOUBLE_EQ(n[0].second, 3.0);
  EXPECT_DOUBLE_EQ(n[1].second, 2.5);
}

TEST(Experiment, NormalizedSkipsMissingBaseline) {
  ExperimentRunner ex;
  ex.add(fake("base", "mcf", 1.0));
  ex.add(fake("A", "mcf", 2.0));
  ex.add(fake("A", "xz", 9.0));  // no baseline row for xz
  EXPECT_EQ(ex.normalized("A", "base", metric_ipc).size(), 1u);
}

TEST(Experiment, CsvHasHeaderAndRows) {
  ExperimentRunner ex;
  ex.add(fake("A", "mcf", 1.25));
  std::ostringstream os;
  ex.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("design,workload"), std::string::npos);
  EXPECT_NE(out.find("A,mcf"), std::string::npos);
  EXPECT_NE(out.find("1.2500"), std::string::npos);
}

TEST(Experiment, JsonExportsFullRunResult) {
  ExperimentRunner ex;
  RunResult r = fake("A \"quoted\"", "mcf", 1.25);
  r.hbm_class_bytes[static_cast<std::size_t>(mem::TrafficClass::kDemand)] =
      640;
  r.hbm_class_bytes[static_cast<std::size_t>(mem::TrafficClass::kFill)] = 128;
  r.dram_class_bytes[
      static_cast<std::size_t>(mem::TrafficClass::kWriteback)] = 256;
  ex.add(r);
  ex.add(fake("B", "xz", 2.0));

  std::ostringstream os;
  ex.write_json(os);
  const std::string out = os.str();

  // Array of one object per run, escaped strings, exact double round-trip.
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"design\":\"A \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"workload\":\"mcf\""), std::string::npos);
  EXPECT_NE(out.find("\"ipc\":1.25"), std::string::npos);
  EXPECT_NE(out.find("\"design\":\"B\""), std::string::npos);
  // The per-class split the CSV flattens must be present, keyed by class.
  EXPECT_NE(out.find("\"hbm_class_bytes\":{\"demand\":640,\"fill\":128,"),
            std::string::npos);
  EXPECT_NE(out.find("\"writeback\":256"), std::string::npos);
}

TEST(Experiment, JsonEmptyRunnerIsEmptyArray) {
  ExperimentRunner ex;
  std::ostringstream os;
  ex.write_json(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

// The JSON export must obey the same serial/parallel byte-identity
// contract as the CSV.
TEST(Experiment, JsonDeterministicAcrossJobs) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf")};

  RunMatrixOptions opts;
  opts.instructions = 100'000;

  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;

  ExperimentRunner serial(cfg);
  opts.jobs = 1;
  serial.run_matrix(designs, workloads, opts);
  ExperimentRunner parallel(cfg);
  opts.jobs = 4;
  parallel.run_matrix(designs, workloads, opts);

  std::ostringstream a, b;
  serial.write_json(a);
  parallel.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Experiment, RunMatrixEndToEnd) {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  ExperimentRunner ex(cfg);
  int callbacks = 0;
  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.target_misses = 500;
  opts.min_instructions = 100'000;
  opts.max_instructions = 200'000;
  opts.on_result = [&](const RunResult&) { ++callbacks; };
  ex.run_matrix({"DRAM-only", "Bumblebee"},
                {trace::WorkloadProfile::by_name("mcf")}, opts);
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(ex.results().size(), 2u);
  const auto n = ex.normalized("Bumblebee", "DRAM-only", metric_ipc);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_GT(n[0].second, 0.0);
}

SystemConfig small_config() {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  return cfg;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.hbm_serve_rate, b.hbm_serve_rate);
  EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns);
  EXPECT_EQ(a.mal_fraction, b.mal_fraction);
  EXPECT_EQ(a.overfetch, b.overfetch);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_EQ(a.metadata_sram_bytes, b.metadata_sram_bytes);
  EXPECT_EQ(a.hbm_class_bytes, b.hbm_class_bytes);
  EXPECT_EQ(a.dram_class_bytes, b.dram_class_bytes);
}

// Serial (jobs=1) and parallel (jobs=4) executions of the same matrix must
// produce identical RunResult vectors — same values, same matrix order —
// and therefore byte-identical CSV. This is the determinism contract the
// parallel runner commits to (indexed slots, not completion order).
TEST(Experiment, ParallelMatrixMatchesSerialByteForByte) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf"),
      trace::WorkloadProfile::by_name("lbm")};

  RunMatrixOptions opts;
  opts.target_misses = 500;
  opts.min_instructions = 100'000;
  opts.max_instructions = 200'000;

  ExperimentRunner serial(small_config());
  opts.jobs = 1;
  serial.run_matrix(designs, workloads, opts);

  ExperimentRunner parallel(small_config());
  opts.jobs = 4;
  parallel.run_matrix(designs, workloads, opts);

  ASSERT_EQ(serial.results().size(), designs.size() * workloads.size());
  ASSERT_EQ(parallel.results().size(), serial.results().size());
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial.results()[i], parallel.results()[i]);
  }

  std::ostringstream serial_csv, parallel_csv;
  serial.write_csv(serial_csv);
  parallel.write_csv(parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(Experiment, ParallelOnResultFiresInMatrixOrder) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf"),
      trace::WorkloadProfile::by_name("lbm")};

  RunMatrixOptions opts;
  opts.jobs = 4;
  opts.target_misses = 500;
  opts.min_instructions = 100'000;
  opts.max_instructions = 200'000;
  std::vector<std::string> seen;
  opts.on_result = [&](const RunResult& r) {
    seen.push_back(r.design + "/" + r.workload);
  };

  ExperimentRunner ex(small_config());
  ex.run_matrix(designs, workloads, opts);

  const std::vector<std::string> expected = {
      "DRAM-only/mcf", "Bumblebee/mcf", "DRAM-only/lbm", "Bumblebee/lbm"};
  EXPECT_EQ(seen, expected);
}

// Once cancel() returns true no further cell commits, restored or not;
// cells already running still finish and commit. So results() and the
// on_result sequence are always a matrix-order prefix of the uncancelled
// run, at every --jobs. Rows compare as journal lines (every field).
TEST(Experiment, CancelCommitsAMatrixOrderPrefix) {
  struct Outcome {
    std::vector<std::string> rows;
    std::vector<std::string> callbacks;
  };
  const auto expect_prefix = [](const Outcome& cut, const Outcome& full) {
    ASSERT_LE(cut.rows.size(), full.rows.size());
    ASSERT_LE(cut.callbacks.size(), full.callbacks.size());
    for (std::size_t i = 0; i < cut.rows.size(); ++i) {
      EXPECT_EQ(cut.rows[i], full.rows[i]) << "row " << i;
    }
    for (std::size_t i = 0; i < cut.callbacks.size(); ++i) {
      EXPECT_EQ(cut.callbacks[i], full.callbacks[i]) << "callback " << i;
    }
  };
  // Runs `matrix` with on_result recording every commit and, when
  // `cancel_after` > 0, cancel() turning true after that many commits.
  const auto run = [](unsigned jobs, std::size_t cancel_after,
                      const auto& matrix) {
    Outcome out;
    std::atomic<std::size_t> commits{0};
    RunMatrixOptions opts;
    opts.jobs = jobs;
    opts.instructions = 100'000;
    opts.on_result = [&](const RunResult& r) {
      out.callbacks.push_back(ResultJournal::line(r));
      ++commits;
    };
    if (cancel_after > 0) {
      opts.cancel = [&] { return commits >= cancel_after; };
    }
    ExperimentRunner ex(small_config());
    matrix(ex, opts);
    for (const RunResult& r : ex.results()) {
      out.rows.push_back(ResultJournal::line(r));
    }
    return out;
  };

  // run_matrix resuming from a partial journal that holds the first and
  // the last cell: the last one must not commit once the sweep is
  // cancelled, although it needs no simulation.
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<trace::WorkloadProfile> workloads = {
      trace::WorkloadProfile::by_name("mcf"),
      trace::WorkloadProfile::by_name("lbm"),
      trace::WorkloadProfile::by_name("xz")};
  const Outcome reference = run(1, 0, [&](ExperimentRunner& ex,
                                          const RunMatrixOptions& opts) {
    ex.run_matrix(designs, workloads, opts);
  });
  ASSERT_EQ(reference.rows.size(), 6u);
  ResultJournal journal;
  std::istringstream journal_is(reference.rows.front() + "\n" +
                                reference.rows.back() + "\n");
  ASSERT_EQ(journal.load_stats(journal_is).restored, 2u);
  const auto resumed_matrix = [&](ExperimentRunner& ex,
                                  RunMatrixOptions opts) {
    opts.resume = &journal;
    ex.run_matrix(designs, workloads, opts);
  };
  const Outcome full = run(1, 0, resumed_matrix);
  EXPECT_EQ(full.rows, reference.rows);
  ASSERT_EQ(full.callbacks.size(), 4u);  // the two journaled cells are quiet
  for (const unsigned jobs : {1u, 4u}) {
    for (const std::size_t k : {1u, 2u, 3u}) {
      SCOPED_TRACE("run_matrix jobs=" + std::to_string(jobs) +
                   " cancel after " + std::to_string(k));
      const Outcome cut = run(jobs, k, resumed_matrix);
      expect_prefix(cut, full);
      EXPECT_GE(cut.callbacks.size(), k);
      if (jobs == 1) {
        // Restored cell 0, then k fresh cells, then nothing.
        EXPECT_EQ(cut.rows.size(), k + 1);
        EXPECT_EQ(cut.callbacks.size(), k);
      }
    }
  }

  // run_mix_matrix: on_result fires per committed alone baseline and
  // co-run. The journal holds every baseline and the second co-run cell,
  // which must not commit once the sweep is cancelled after the first.
  const std::vector<MixSpec> mixes = {MixSpec::parse("cachecap2"),
                                      MixSpec::parse("mcf+xz")};
  const auto plain_mix = [&](ExperimentRunner& ex,
                             const RunMatrixOptions& opts) {
    ex.run_mix_matrix(designs, mixes, opts);
  };
  const Outcome mix_reference = run(1, 0, plain_mix);
  ASSERT_EQ(mix_reference.rows.size(), 4u);
  ASSERT_EQ(mix_reference.callbacks.size(), 10u);  // 6 baselines, 4 co-runs
  std::string mix_lines;
  for (std::size_t i = 0; i < 6; ++i) {
    mix_lines += mix_reference.callbacks[i] + "\n";
  }
  mix_lines += mix_reference.callbacks[7] + "\n";
  ResultJournal mix_journal;
  std::istringstream mix_is(mix_lines);
  ASSERT_EQ(mix_journal.load_stats(mix_is).restored, 7u);
  const auto mix_matrix = [&](ExperimentRunner& ex, RunMatrixOptions opts) {
    opts.resume = &mix_journal;
    ex.run_mix_matrix(designs, mixes, opts);
  };
  const Outcome mix_full = run(1, 0, mix_matrix);
  EXPECT_EQ(mix_full.rows, mix_reference.rows);
  ASSERT_EQ(mix_full.callbacks.size(), 3u);
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("run_mix_matrix jobs=" + std::to_string(jobs));
    const Outcome cut = run(jobs, 1, mix_matrix);
    expect_prefix(cut, mix_full);
    EXPECT_GE(cut.rows.size(), 1u);
    if (jobs == 1) {
      EXPECT_EQ(cut.rows.size(), 1u);
    }
    // A cancel among the baselines commits no co-run at all.
    const Outcome early = run(jobs, 2, plain_mix);
    expect_prefix(early, mix_reference);
    EXPECT_TRUE(early.rows.empty());
  }
}

// A mix matrix journaled through on_result must restore completely: every
// alone baseline and co-run cell comes back from the journal, the resumed
// run re-simulates nothing and fires no callbacks, and every export is
// byte-identical. The "mcf" mix shares its (design, name) with the mcf
// baseline; each must restore to its own cell. A sweep cut short at any
// point resumes to the same bytes, simulating only what the cut left out.
TEST(Experiment, MixMatrixResumesFromJournal) {
  SystemConfig cfg = small_config();
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("mcf+lbm"),
                                      MixSpec::parse("mcf")};

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 100'000;
  const auto render = [](const ExperimentRunner& r) {
    std::ostringstream csv, json, mix_csv, mix_json;
    r.write_csv(csv);
    r.write_json(json);
    r.write_mix_csv(mix_csv);
    r.write_mix_json(mix_json);
    return csv.str() + json.str() + mix_csv.str() + mix_json.str();
  };

  std::ostringstream journal_os;
  RunMatrixOptions first_opts = opts;
  first_opts.on_result = [&](const RunResult& r) {
    journal_os << ResultJournal::line(r) << "\n";
  };
  ExperimentRunner first(cfg);
  first.run_mix_matrix(designs, mixes, first_opts);
  ASSERT_EQ(first.results().size(), 4u);  // the co-runs only

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  const auto stats = journal.load_stats(journal_is);
  EXPECT_EQ(stats.restored, 8u);  // 4 alone baselines + 4 co-runs
  EXPECT_EQ(stats.malformed, 0u);
  const RunResult* alone = journal.find("Bumblebee", "mcf");
  const RunResult* co_run = journal.find("Bumblebee", "mcf", true);
  ASSERT_NE(alone, nullptr);
  ASSERT_NE(co_run, nullptr);
  EXPECT_EQ(alone->core_perf, nullptr);
  ASSERT_NE(co_run->core_perf, nullptr);
  ASSERT_EQ(co_run->core_perf->size(), 1u);
  EXPECT_DOUBLE_EQ((*co_run->core_perf)[0].alone_ipc, alone->ipc);
  ASSERT_NE(journal.find("Bumblebee", "mcf+lbm", true), nullptr);
  EXPECT_EQ(journal.find("Bumblebee", "mcf+lbm"), nullptr);
  EXPECT_EQ(journal.find("Bumblebee", "nonesuch"), nullptr);
  EXPECT_EQ(journal.find("nonesuch", "mcf+lbm", true), nullptr);

  RunMatrixOptions resume_opts = opts;
  resume_opts.jobs = 4;
  resume_opts.resume = &journal;
  std::size_t fresh = 0;
  resume_opts.on_result = [&](const RunResult&) { ++fresh; };
  ExperimentRunner second(cfg);
  second.run_mix_matrix(designs, mixes, resume_opts);
  EXPECT_EQ(fresh, 0u);  // everything restored, nothing re-simulated
  EXPECT_EQ(render(first), render(second));

  for (const std::size_t k : {2u, 4u, 6u}) {
    SCOPED_TRACE("cut after " + std::to_string(k) + " cells");
    std::ostringstream cut_os;
    std::size_t commits = 0;
    RunMatrixOptions cut_opts = opts;
    cut_opts.on_result = [&](const RunResult& r) {
      cut_os << ResultJournal::line(r) << "\n";
      ++commits;
    };
    cut_opts.cancel = [&] { return commits >= k; };
    ExperimentRunner cut(cfg);
    cut.run_mix_matrix(designs, mixes, cut_opts);
    ASSERT_EQ(commits, k);

    ResultJournal partial;
    std::istringstream partial_is(cut_os.str());
    ASSERT_EQ(partial.load_stats(partial_is).restored, k);
    RunMatrixOptions rest_opts = opts;
    rest_opts.resume = &partial;
    std::size_t rerun = 0;
    rest_opts.on_result = [&](const RunResult&) { ++rerun; };
    ExperimentRunner rest(cfg);
    rest.run_mix_matrix(designs, mixes, rest_opts);
    EXPECT_EQ(rerun, 8u - k);
    EXPECT_EQ(render(rest), render(first));
  }
}

// A journal holding only the alone baselines (interrupt landed between the
// two phases) must restore phase 1 and re-simulate only the co-run cells.
TEST(Experiment, MixMatrixResumesPartialAloneJournal) {
  SystemConfig cfg = small_config();
  const std::vector<std::string> designs = {"DRAM-only"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("mcf+lbm")};

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 100'000;

  std::ostringstream journal_os;
  RunMatrixOptions first_opts = opts;
  first_opts.on_result = [&](const RunResult& r) {
    if (!r.core_perf) journal_os << ResultJournal::line(r) << "\n";
  };
  ExperimentRunner first(cfg);
  first.run_mix_matrix(designs, mixes, first_opts);

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  EXPECT_EQ(journal.load_stats(journal_is).restored, 2u);

  RunMatrixOptions resume_opts = opts;
  resume_opts.resume = &journal;
  std::size_t alone_reruns = 0, mix_runs = 0;
  resume_opts.on_result = [&](const RunResult& r) {
    ++(r.core_perf ? mix_runs : alone_reruns);
  };
  ExperimentRunner second(cfg);
  second.run_mix_matrix(designs, mixes, resume_opts);
  EXPECT_EQ(alone_reruns, 0u);
  EXPECT_EQ(mix_runs, 1u);
  // The restored baselines fed the fresh co-run scoring.
  ASSERT_EQ(second.results().size(), 1u);
  for (const auto& c : *second.results()[0].core_perf) {
    EXPECT_GT(c.alone_ipc, 0.0);
  }
  std::ostringstream a, b;
  first.write_mix_json(a);
  second.write_mix_json(b);
  EXPECT_EQ(a.str(), b.str());
}

// load_stats must count damage instead of crashing (or silently accepting):
// garbage lines, torn writes, schema-less objects and any line with a
// "kind" key (the retired alone/mix journal lines) are all malformed;
// valid lines around them still restore.
TEST(Experiment, JournalLoadStatsCountsMalformedLines) {
  RunResult co_run = fake("A", "xz", 2.0);
  co_run.core_perf = std::make_shared<std::vector<CorePerf>>(1);
  std::string journal_text;
  journal_text += ResultJournal::line(fake("A", "mcf", 1.5)) + "\n";
  journal_text += "not json at all\n";
  journal_text += "{\"design\":\"torn";  // torn tail, no newline termination
  journal_text += "\n";
  journal_text += ResultJournal::line(co_run) + "\n";
  journal_text += "{\"kind\":\"martian\",\"design\":\"A\"}\n";
  journal_text += "{\"kind\":\"mix\",\"design\":\"A\"}\n";
  journal_text += "[1,2,3]\n";   // not an object
  journal_text += "\n";          // blank lines are ignored, not malformed
  journal_text +=
      "{\"kind\":\"alone\",\"design\":\"A\",\"workload\":\"lbm\","
      "\"ipc\":1}\n";

  ResultJournal journal;
  std::istringstream is(journal_text);
  const auto stats = journal.load_stats(is);
  EXPECT_EQ(stats.restored, 2u);
  EXPECT_EQ(stats.malformed, 6u);
  EXPECT_NE(journal.find("A", "mcf"), nullptr);
  EXPECT_EQ(journal.find("A", "lbm"), nullptr);
  EXPECT_EQ(journal.find("A", "xz"), nullptr);
  ASSERT_NE(journal.find("A", "xz", true), nullptr);
  EXPECT_DOUBLE_EQ(journal.find("A", "xz", true)->ipc, 2.0);
}

// Last-line-wins: a journal that records the same cell twice (rerun after a
// partial resume) restores the later value.
TEST(Experiment, JournalLastLineWins) {
  std::string journal_text;
  journal_text += ResultJournal::line(fake("A", "mcf", 1.0)) + "\n";
  journal_text += ResultJournal::line(fake("A", "mcf", 3.0)) + "\n";
  ResultJournal journal;
  std::istringstream is(journal_text);
  EXPECT_EQ(journal.load_stats(is).restored, 2u);
  ASSERT_NE(journal.find("A", "mcf"), nullptr);
  EXPECT_DOUBLE_EQ(journal.find("A", "mcf")->ipc, 3.0);
}

TEST(Experiment, BumblebeeMatrixLabelsResults) {
  bumblebee::BumblebeeConfig a;  // defaults
  bumblebee::BumblebeeConfig b;
  b.block_bytes = 4 * KiB;

  RunMatrixOptions opts;
  opts.jobs = 2;
  opts.instructions = 100'000;

  ExperimentRunner ex(small_config());
  ex.run_bumblebee_matrix({{"cfg-a", a}, {"cfg-b", b}},
                          {trace::WorkloadProfile::by_name("mcf")}, opts);
  ASSERT_EQ(ex.results().size(), 2u);
  EXPECT_EQ(ex.results()[0].design, "cfg-a");
  EXPECT_EQ(ex.results()[1].design, "cfg-b");
  EXPECT_EQ(ex.for_design("cfg-b").size(), 1u);
}

}  // namespace
}  // namespace bb::sim
