// bb::prof unit tests: phase accounting, exclusive self-time under
// nesting, the disabled path, merge, Stopwatch, peak RSS, and the
// HostReport JSON round-tripping through the repo's own parser.
#include "common/prof.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/json.h"

namespace bb::prof {
namespace {

// The profiler is process-global; each test starts from a clean slate.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    enable(false);
    reset();
  }
  void TearDown() override {
    enable(false);
    reset();
  }
};

void spin_ns(u64 ns) {
  const u64 start = monotonic_ns();
  while (monotonic_ns() - start < ns) {
  }
}

TEST_F(ProfTest, DisabledScopedPhaseRecordsNothing) {
  {
    ScopedPhase p(Phase::kTraceGen);
    spin_ns(100'000);
  }
  const PhaseTotals t = aggregate();
  EXPECT_EQ(t.total_ns(), 0u);
  for (std::size_t i = 0; i < kPhaseCount; ++i) EXPECT_EQ(t.calls[i], 0u);
}

TEST_F(ProfTest, EnabledScopedPhaseAccumulatesTimeAndCalls) {
  enable(true);
  {
    ScopedPhase p(Phase::kHmmAccess);
    spin_ns(200'000);
  }
  const PhaseTotals t = aggregate();
  const auto idx = static_cast<std::size_t>(Phase::kHmmAccess);
  EXPECT_EQ(t.calls[idx], 1u);
  EXPECT_GE(t.ns[idx], 200'000u);
  EXPECT_EQ(t.calls[static_cast<std::size_t>(Phase::kTraceGen)], 0u);
}

TEST_F(ProfTest, NestedPhaseGetsExclusiveSelfTime) {
  enable(true);
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedPhase outer(Phase::kHmmAccess);
    spin_ns(150'000);
    {
      ScopedPhase inner(Phase::kDeviceTiming);
      spin_ns(400'000);
    }
    spin_ns(150'000);
  }
  const auto span_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  const PhaseTotals t = aggregate();
  const u64 outer_ns = t.ns[static_cast<std::size_t>(Phase::kHmmAccess)];
  const u64 inner_ns = t.ns[static_cast<std::size_t>(Phase::kDeviceTiming)];
  // Each phase holds at least its own spins (outer ~300us, inner ~400us).
  EXPECT_GE(inner_ns, 400'000u);
  EXPECT_GE(outer_ns, 300'000u);
  // The inner phase's time must not be double-counted into the outer one:
  // exclusive self-times add up to no more than the wall span around the
  // block, however long a preemption stretched either spin. Counting the
  // inner time twice would put ~1.1 ms inside a ~0.7 ms span.
  EXPECT_LE(outer_ns + inner_ns, span_ns);
}

TEST_F(ProfTest, ResetClearsTotals) {
  enable(true);
  {
    ScopedPhase p(Phase::kIo);
    spin_ns(50'000);
  }
  ASSERT_GT(aggregate().total_ns(), 0u);
  reset();
  EXPECT_EQ(aggregate().total_ns(), 0u);
}

TEST_F(ProfTest, AggregateMergesWorkerThreads) {
  enable(true);
  std::thread t1([] {
    ScopedPhase p(Phase::kTraceGen);
    spin_ns(100'000);
  });
  std::thread t2([] {
    ScopedPhase p(Phase::kTraceGen);
    spin_ns(100'000);
  });
  t1.join();
  t2.join();
  const PhaseTotals t = aggregate();
  EXPECT_EQ(t.calls[static_cast<std::size_t>(Phase::kTraceGen)], 2u);
  EXPECT_EQ(worker_busy_ns().size(), 2u);
  // Descending order.
  const auto busy = worker_busy_ns();
  for (std::size_t i = 1; i < busy.size(); ++i) {
    EXPECT_GE(busy[i - 1], busy[i]);
  }
}

TEST_F(ProfTest, PhaseTotalsMerge) {
  PhaseTotals a, b;
  a.ns[0] = 5;
  a.calls[0] = 1;
  b.ns[0] = 7;
  b.calls[0] = 2;
  b.ns[3] = 11;
  b.calls[3] = 1;
  a.merge(b);
  EXPECT_EQ(a.ns[0], 12u);
  EXPECT_EQ(a.calls[0], 3u);
  EXPECT_EQ(a.ns[3], 11u);
  EXPECT_EQ(a.total_ns(), 23u);
}

TEST_F(ProfTest, StopwatchMeasuresElapsedTime) {
  Stopwatch sw;
  spin_ns(1'000'000);
  const double s = sw.seconds();
  EXPECT_GE(s, 0.001);
  EXPECT_LT(s, 10.0);
  sw.restart();
  EXPECT_LT(sw.seconds(), s);
}

TEST_F(ProfTest, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

TEST_F(ProfTest, PhaseNamesAreStableSnakeCase) {
  EXPECT_STREQ(to_string(Phase::kTraceGen), "trace_gen");
  EXPECT_STREQ(to_string(Phase::kHmmAccess), "hmm_access");
  EXPECT_STREQ(to_string(Phase::kDeviceTiming), "device_timing");
  EXPECT_STREQ(to_string(Phase::kStatsCommit), "stats_commit");
  EXPECT_STREQ(to_string(Phase::kIo), "io");
}

TEST_F(ProfTest, HostReportJsonParsesAndCarriesEveryKey) {
  enable(true);
  {
    ScopedPhase p(Phase::kTraceGen);
    spin_ns(100'000);
  }
  const HostReport r = make_host_report(/*wall_seconds=*/2.0,
                                        /*requests=*/1'000'000);
  EXPECT_DOUBLE_EQ(r.requests_per_sec, 500'000.0);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(host_report_to_json(r), doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get_number("schema_version"), 1.0);
  EXPECT_EQ(doc.get_number("wall_seconds"), 2.0);
  EXPECT_EQ(doc.get_number("requests"), 1'000'000.0);
  EXPECT_EQ(doc.get_number("requests_per_sec"), 500'000.0);
  const JsonValue* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const JsonValue* p = phases->find(to_string(static_cast<Phase>(i)));
    ASSERT_NE(p, nullptr) << to_string(static_cast<Phase>(i));
    EXPECT_NE(p->find("seconds"), nullptr);
    EXPECT_NE(p->find("calls"), nullptr);
  }
  const JsonValue* workers = doc.find("worker_busy_seconds");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->type, JsonValue::Type::kArray);
  EXPECT_EQ(workers->array.size(), r.worker_busy_ns_by_thread.size());
}

TEST_F(ProfTest, MakeHostReportZeroWallClockYieldsZeroRate) {
  const HostReport r = make_host_report(0.0, 123);
  EXPECT_DOUBLE_EQ(r.requests_per_sec, 0.0);
}

}  // namespace
}  // namespace bb::prof
