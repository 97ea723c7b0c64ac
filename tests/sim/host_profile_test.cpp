// Host-observability integration tests.
//
// Pins the three properties the bb::prof layer promises: (1) the "host"
// JSON section exists only in the profiled write_json overload, never in
// the plain (golden-hashed) writers; (2) with profiling ENABLED, simulated
// outputs stay byte-identical between --jobs=1 and --jobs=4 — the profiler
// observes, it never perturbs; (3) the checked-in BENCH_throughput.json
// trajectory file round-trips through the repo's own json_parse and holds
// every workload and end-to-end metric that BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/prof.h"
#include "sim/experiment.h"

namespace bb::sim {
namespace {

SystemConfig tiny_config() {
  SystemConfig cfg;
  cfg.hbm.capacity_bytes = 32 * MiB;
  cfg.dram.capacity_bytes = 320 * MiB;
  cfg.core.cores = 1;
  cfg.warmup_ratio = 0.0;
  cfg.seed = 42;
  return cfg;
}

RunMatrixOptions tiny_opts(unsigned jobs) {
  RunMatrixOptions opts;
  opts.jobs = jobs;
  opts.instructions = 60'000;
  return opts;
}

void run_tiny_matrix(ExperimentRunner& ex, unsigned jobs) {
  ex.run_matrix({"DRAM-only", "Bumblebee"},
                {trace::WorkloadProfile::by_name("mcf"),
                 trace::WorkloadProfile::by_name("lbm")},
                tiny_opts(jobs));
}

class HostProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::enable(false);
    prof::reset();
  }
  void TearDown() override {
    prof::enable(false);
    prof::reset();
  }
};

TEST_F(HostProfileTest, PlainWriteJsonHasNoHostSection) {
  prof::enable(true);
  ExperimentRunner ex(tiny_config());
  run_tiny_matrix(ex, 1);

  std::ostringstream json;
  ex.write_json(json);
  // The plain writer is a JSON *array* with no host key — even while
  // profiling is enabled. This is what keeps the golden hash pinned.
  EXPECT_EQ(json.str().front(), '[');
  EXPECT_EQ(json.str().find("\"host\""), std::string::npos);

  std::ostringstream csv;
  ex.write_csv(csv);
  EXPECT_EQ(csv.str().find("host"), std::string::npos);
}

TEST_F(HostProfileTest, ProfiledWriteJsonWrapsRunsAndHost) {
  prof::enable(true);
  ExperimentRunner ex(tiny_config());
  run_tiny_matrix(ex, 1);

  std::ostringstream plain, profiled;
  ex.write_json(plain);
  const prof::HostReport host = prof::make_host_report(1.5, 1000);
  ex.write_json(profiled, host);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(profiled.str(), doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->type, JsonValue::Type::kArray);
  EXPECT_EQ(runs->array.size(), 4u);
  const JsonValue* host_v = doc.find("host");
  ASSERT_NE(host_v, nullptr);
  EXPECT_EQ(host_v->get_number("schema_version"), 1.0);
  EXPECT_EQ(host_v->get_number("wall_seconds"), 1.5);

  // The embedded runs payload is byte-identical to the plain writer's.
  EXPECT_NE(profiled.str().find(plain.str()), std::string::npos);
}

TEST_F(HostProfileTest, ProfilingEnabledKeepsJobsByteIdentity) {
  prof::enable(true);

  ExperimentRunner serial(tiny_config());
  run_tiny_matrix(serial, 1);
  ExperimentRunner parallel(tiny_config());
  run_tiny_matrix(parallel, 4);

  std::ostringstream csv1, csv4, json1, json4;
  serial.write_csv(csv1);
  parallel.write_csv(csv4);
  serial.write_json(json1);
  parallel.write_json(json4);
  EXPECT_EQ(csv1.str(), csv4.str())
      << "profiling must not perturb simulated CSV output across --jobs";
  EXPECT_EQ(json1.str(), json4.str())
      << "profiling must not perturb simulated JSON output across --jobs";
  // And the profiler did actually observe the runs.
  EXPECT_GT(prof::aggregate().total_ns(), 0u);
}

// Parses a repo-root file, located relative to this source file so the
// test is independent of the ctest working directory.
JsonValue parse_repo_file(const std::string& name) {
  std::string path = __FILE__;
  const std::string suffix = "tests/sim/host_profile_test.cpp";
  if (!path.ends_with(suffix)) {
    ADD_FAILURE() << "cannot locate the repo root from " << path;
    return {};
  }
  path.replace(path.size() - suffix.size(), suffix.size(), name);
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing checked-in file: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(buf.str(), doc, &error)) << path << ": " << error;
  return doc;
}

TEST_F(HostProfileTest, CheckedInBenchTrajectoryRoundTrips) {
  const JsonValue spec = parse_repo_file("BENCHMARK.json");
  const JsonValue doc = parse_repo_file("BENCH_throughput.json");
  ASSERT_TRUE(doc.is_object());
  EXPECT_FALSE(doc.get_string("git_rev").empty());
  EXPECT_EQ(doc.get_number("seed"), 42.0);
  const JsonValue* workloads = spec.find("workloads");
  const JsonValue* metrics = spec.find("end_to_end");
  ASSERT_NE(workloads, nullptr);
  ASSERT_NE(metrics, nullptr);
  ASSERT_FALSE(workloads->array.empty());
  ASSERT_FALSE(metrics->array.empty());
  for (const JsonValue& w : workloads->array) {
    const std::string name = w.get_string("name");
    const JsonValue* run = doc.find(name);
    ASSERT_NE(run, nullptr) << "workload " << name << " missing";
    const JsonValue* correct = run->find("correct");
    ASSERT_NE(correct, nullptr);
    EXPECT_TRUE(correct->boolean) << name;
    EXPECT_EQ(run->get_number("failed", -1.0), 0.0) << name;
    const JsonValue* got = run->find("metrics");
    ASSERT_NE(got, nullptr) << name;
    for (const JsonValue& m : metrics->array) {
      const JsonValue* entry = got->find(m.get_string("name"));
      ASSERT_NE(entry, nullptr) << name << "." << m.get_string("name");
      EXPECT_EQ(entry->get_string("unit"), m.get_string("unit"));
      EXPECT_GT(entry->get_number("value"), 0.0)
          << name << "." << m.get_string("name");
    }
  }
}

}  // namespace
}  // namespace bb::sim
