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

  // run_mix_matrix: on_result fires per committed co-run aggregate. The
  // journal holds the second co-run cell, which must not commit once the
  // sweep is cancelled after the first.
  const std::vector<MixSpec> mixes = {MixSpec::parse("cachecap2"),
                                      MixSpec::parse("mcf+xz")};
  ResultJournal mix_journal;
  {
    ExperimentRunner ex(small_config());
    RunMatrixOptions opts;
    opts.jobs = 1;
    opts.instructions = 100'000;
    ex.run_mix_matrix(designs, mixes, opts);
    std::istringstream is(ResultJournal::mix_line(ex.mix_results()[1]) + "\n");
    ASSERT_EQ(mix_journal.load_stats(is).restored, 1u);
  }
  const auto mix_matrix = [&](ExperimentRunner& ex, RunMatrixOptions opts) {
    opts.resume = &mix_journal;
    ex.run_mix_matrix(designs, mixes, opts);
  };
  const Outcome mix_full = run(1, 0, mix_matrix);
  ASSERT_EQ(mix_full.rows.size(), 4u);
  ASSERT_EQ(mix_full.callbacks.size(), 3u);
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("run_mix_matrix jobs=" + std::to_string(jobs));
    const Outcome cut = run(jobs, 1, mix_matrix);
    expect_prefix(cut, mix_full);
    EXPECT_GE(cut.rows.size(), 1u);
    if (jobs == 1) {
      EXPECT_EQ(cut.rows.size(), 1u);
    }
  }
}

// A mix matrix journaled through on_alone / on_mix_result must restore
// completely: the resumed run re-simulates nothing, fires no callbacks, and
// reproduces every export byte-for-byte.
TEST(Experiment, MixMatrixResumesFromJournal) {
  SystemConfig cfg = small_config();
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("mcf+lbm")};

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 100'000;

  std::ostringstream journal_os;
  RunMatrixOptions first_opts = opts;
  first_opts.on_alone = [&](const std::string& d, const std::string& w,
                            double ipc) {
    journal_os << ResultJournal::alone_line(d, w, ipc) << "\n";
  };
  first_opts.on_mix_result = [&](const MixResult& r) {
    journal_os << ResultJournal::mix_line(r) << "\n";
  };
  ExperimentRunner first(cfg);
  first.run_mix_matrix(designs, mixes, first_opts);
  ASSERT_EQ(first.mix_results().size(), 2u);
  ASSERT_EQ(first.alone_ipc().size(), 4u);  // 2 designs x 2 workloads

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  const auto stats = journal.load_stats(journal_is);
  EXPECT_EQ(stats.restored, 6u);  // 4 alone baselines + 2 mix cells
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_NE(journal.find_alone("Bumblebee", "mcf"), nullptr);
  ASSERT_NE(journal.find_mix("Bumblebee", "mcf+lbm"), nullptr);
  EXPECT_EQ(journal.find_alone("Bumblebee", "nonesuch"), nullptr);
  EXPECT_EQ(journal.find_mix("nonesuch", "mcf+lbm"), nullptr);

  RunMatrixOptions resume_opts = opts;
  resume_opts.jobs = 4;
  resume_opts.resume = &journal;
  std::size_t fresh = 0;
  resume_opts.on_alone = [&](const std::string&, const std::string&,
                             double) { ++fresh; };
  resume_opts.on_mix_result = [&](const MixResult&) { ++fresh; };
  resume_opts.on_result = [&](const RunResult&) { ++fresh; };
  ExperimentRunner second(cfg);
  second.run_mix_matrix(designs, mixes, resume_opts);
  EXPECT_EQ(fresh, 0u);  // everything restored, nothing re-simulated

  std::ostringstream a_csv, b_csv, a_mix, b_mix;
  first.write_csv(a_csv);
  second.write_csv(b_csv);
  first.write_mix_json(a_mix);
  second.write_mix_json(b_mix);
  EXPECT_EQ(a_csv.str(), b_csv.str());
  EXPECT_EQ(a_mix.str(), b_mix.str());
}

// A journal holding only the alone baselines (interrupt landed between the
// two phases) must skip phase 1 and re-simulate only the co-run cells.
TEST(Experiment, MixMatrixResumesPartialAloneJournal) {
  SystemConfig cfg = small_config();
  const std::vector<std::string> designs = {"DRAM-only"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("mcf+lbm")};

  RunMatrixOptions opts;
  opts.jobs = 1;
  opts.instructions = 100'000;

  std::ostringstream journal_os;
  RunMatrixOptions first_opts = opts;
  first_opts.on_alone = [&](const std::string& d, const std::string& w,
                            double ipc) {
    journal_os << ResultJournal::alone_line(d, w, ipc) << "\n";
  };
  ExperimentRunner first(cfg);
  first.run_mix_matrix(designs, mixes, first_opts);

  ResultJournal journal;
  std::istringstream journal_is(journal_os.str());
  EXPECT_EQ(journal.load_stats(journal_is).restored, 2u);

  RunMatrixOptions resume_opts = opts;
  resume_opts.resume = &journal;
  std::size_t alone_reruns = 0, mix_runs = 0;
  resume_opts.on_alone = [&](const std::string&, const std::string&,
                             double) { ++alone_reruns; };
  resume_opts.on_mix_result = [&](const MixResult&) { ++mix_runs; };
  ExperimentRunner second(cfg);
  second.run_mix_matrix(designs, mixes, resume_opts);
  EXPECT_EQ(alone_reruns, 0u);
  EXPECT_EQ(mix_runs, 1u);
  // The restored baselines fed the fresh co-run scoring.
  ASSERT_EQ(second.mix_results().size(), 1u);
  for (const auto& c : second.mix_results()[0].cores) {
    EXPECT_GT(c.alone_ipc, 0.0);
  }
}

// load_stats must count damage instead of crashing (or silently accepting):
// garbage lines, torn writes, schema-less objects, and unknown kinds are
// all malformed; valid lines around them still restore.
TEST(Experiment, JournalLoadStatsCountsMalformedLines) {
  std::string journal_text;
  journal_text += ResultJournal::line(fake("A", "mcf", 1.5)) + "\n";
  journal_text += "not json at all\n";
  journal_text += "{\"design\":\"torn";  // torn tail, no newline termination
  journal_text += "\n";
  journal_text += ResultJournal::alone_line("A", "xz", 2.0) + "\n";
  journal_text += "{\"kind\":\"martian\",\"design\":\"A\"}\n";
  journal_text += "{\"kind\":\"mix\",\"design\":\"A\"}\n";  // missing scores
  journal_text += "[1,2,3]\n";   // not an object
  journal_text += "\n";          // blank lines are ignored, not malformed
  journal_text += "{\"kind\":\"alone\",\"design\":\"\",\"workload\":\"\"}\n";

  ResultJournal journal;
  std::istringstream is(journal_text);
  const auto stats = journal.load_stats(is);
  EXPECT_EQ(stats.restored, 2u);
  EXPECT_EQ(stats.malformed, 6u);
  EXPECT_NE(journal.find("A", "mcf"), nullptr);
  ASSERT_NE(journal.find_alone("A", "xz"), nullptr);
  EXPECT_DOUBLE_EQ(*journal.find_alone("A", "xz"), 2.0);
}

// Last-line-wins: a journal that records the same cell twice (rerun after a
// partial resume) restores the later value.
TEST(Experiment, JournalLastLineWins) {
  std::string journal_text;
  journal_text += ResultJournal::alone_line("A", "mcf", 1.0) + "\n";
  journal_text += ResultJournal::alone_line("A", "mcf", 3.0) + "\n";
  ResultJournal journal;
  std::istringstream is(journal_text);
  EXPECT_EQ(journal.load_stats(is).restored, 2u);
  ASSERT_NE(journal.find_alone("A", "mcf"), nullptr);
  EXPECT_DOUBLE_EQ(*journal.find_alone("A", "mcf"), 3.0);
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
