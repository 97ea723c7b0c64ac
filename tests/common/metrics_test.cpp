#include "common/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

#include "snapshot_testing.h"

namespace bb {
namespace {

TEST(MetricRegistry, NamesInRegistrationOrder) {
  MetricRegistry reg;
  reg.add_counter("c", [] { return 0.0; });
  reg.add_gauge("g", [] { return 0.0; });
  reg.add_ratio("r", [] { return 0.0; }, [] { return 0.0; });
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"c", "g", "r"}));
  EXPECT_EQ(reg.kind(0), MetricKind::kCounter);
  EXPECT_EQ(reg.kind(1), MetricKind::kGauge);
  EXPECT_EQ(reg.kind(2), MetricKind::kRatio);
}

TEST(EpochSampler, RequestDrivenEpochsReportDeltas) {
  double counter = 1.0;  // non-zero before construction: baselined away
  MetricRegistry reg;
  reg.add_counter("c", [&counter] { return counter; });
  EpochConfig cfg;
  cfg.every_requests = 2;
  EpochSampler s(cfg, std::move(reg));

  counter = 2.0;
  s.on_request(100);
  counter = 4.0;
  s.on_request(200);  // closes epoch 0
  counter = 5.0;
  s.on_request(300);
  s.finish();  // closes the final partial epoch

  ASSERT_EQ(s.rows().size(), 2u);
  const EpochRow& e0 = s.rows()[0];
  EXPECT_EQ(e0.epoch, 0u);
  EXPECT_EQ(e0.start_tick, 0u);
  EXPECT_EQ(e0.end_tick, 200u);
  EXPECT_EQ(e0.requests, 2u);
  ASSERT_EQ(e0.values.size(), 1u);
  EXPECT_DOUBLE_EQ(e0.values[0], 3.0);  // 4 - 1 (construction baseline)

  const EpochRow& e1 = s.rows()[1];
  EXPECT_EQ(e1.epoch, 1u);
  EXPECT_EQ(e1.start_tick, 200u);
  EXPECT_EQ(e1.end_tick, 300u);
  EXPECT_EQ(e1.requests, 1u);
  EXPECT_DOUBLE_EQ(e1.values[0], 1.0);  // 5 - 4
}

TEST(EpochSampler, GaugeReportsEndOfEpochValue) {
  double gauge = 10.0;
  MetricRegistry reg;
  reg.add_gauge("g", [&gauge] { return gauge; });
  EpochConfig cfg;
  cfg.every_requests = 1;
  EpochSampler s(cfg, std::move(reg));

  gauge = 42.0;
  s.on_request(10);
  gauge = 7.0;
  s.on_request(20);
  ASSERT_EQ(s.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(s.rows()[0].values[0], 42.0);
  EXPECT_DOUBLE_EQ(s.rows()[1].values[0], 7.0);
}

TEST(EpochSampler, RatioUsesEpochDeltas) {
  double num = 100.0, den = 1000.0;  // cumulative history: baselined away
  MetricRegistry reg;
  reg.add_ratio("r", [&num] { return num; }, [&den] { return den; });
  EpochConfig cfg;
  cfg.every_requests = 1;
  EpochSampler s(cfg, std::move(reg));

  num = 103.0;
  den = 1004.0;
  s.on_request(10);  // delta 3/4
  s.on_request(20);  // denominator did not advance: 0, not NaN
  ASSERT_EQ(s.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(s.rows()[0].values[0], 0.75);
  EXPECT_DOUBLE_EQ(s.rows()[1].values[0], 0.0);
}

TEST(EpochSampler, TickDrivenEpochs) {
  MetricRegistry reg;
  EpochConfig cfg;
  cfg.every_ticks = 100;
  EpochSampler s(cfg, std::move(reg));

  s.on_request(10);
  s.on_request(50);
  s.on_request(120);  // crosses start(0) + 100
  s.finish();         // nothing pending
  ASSERT_EQ(s.rows().size(), 1u);
  EXPECT_EQ(s.rows()[0].end_tick, 120u);
  EXPECT_EQ(s.rows()[0].requests, 3u);
}

TEST(EpochSampler, RestartDiscardsWarmupAndRebaselines) {
  double counter = 0.0;
  MetricRegistry reg;
  reg.add_counter("c", [&counter] { return counter; });
  EpochConfig cfg;
  cfg.every_requests = 1;
  EpochSampler s(cfg, std::move(reg));

  counter = 5.0;
  s.on_request(50);  // warmup-phase row
  ASSERT_EQ(s.rows().size(), 1u);

  s.restart(1000);  // warmup boundary: stats reset at tick 1000
  EXPECT_TRUE(s.rows().empty());

  counter = 7.0;
  s.on_request(1100);
  ASSERT_EQ(s.rows().size(), 1u);
  const EpochRow& e0 = s.rows()[0];
  // Epoch 0 of the measured phase starts exactly at the reset tick.
  EXPECT_EQ(e0.epoch, 0u);
  EXPECT_EQ(e0.start_tick, 1000u);
  EXPECT_DOUBLE_EQ(e0.values[0], 2.0);  // re-baselined: 7 - 5
}

TEST(EpochSampler, FinishWithoutRequestsAddsNoRow) {
  MetricRegistry reg;
  EpochConfig cfg;
  cfg.every_requests = 4;
  EpochSampler s(cfg, std::move(reg));
  s.finish();
  EXPECT_TRUE(s.rows().empty());
}

TEST(EpochConfig, EnabledWhenEitherCadenceSet) {
  EpochConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.every_requests = 1;
  EXPECT_TRUE(cfg.enabled());
  cfg = EpochConfig{};
  cfg.every_ticks = 1;
  EXPECT_TRUE(cfg.enabled());
}

TEST(EpochCsv, UnionColumnsLeaveMissingCellsEmpty) {
  std::ostringstream os;
  const std::vector<std::string> union_cols = {"a", "b"};
  write_epoch_csv_header(os, {"design", "workload"}, union_cols);

  EpochRow row;
  row.epoch = 0;
  row.start_tick = 0;
  row.end_tick = 10;
  row.requests = 2;
  row.values = {1.5};  // this run only provides column "b"
  write_epoch_csv_rows(os, {"D", "W"}, {"b"}, union_cols, {row});

  EXPECT_EQ(os.str(),
            "design,workload,epoch,start_tick,end_tick,requests,a,b\n"
            "D,W,0,0,10,2,,1.5\n");
}

TEST(EpochSampler, RestoreRejectsCountsPastPayload) {
  // An inflated row count, then an inflated value count inside a row,
  // each fail closed before a vector is sized from them.
  const auto sampler = [] {
    MetricRegistry reg;
    reg.add_counter("c", [] { return 0.0; });
    EpochConfig cfg;
    cfg.every_requests = 2;
    return EpochSampler(cfg, std::move(reg));
  };
  {
    snap::Writer w;
    w.put_u64(u64{1} << 60);  // rows
    EpochSampler s = sampler();
    EXPECT_THROW(snap::testing::restore(w.payload(), s), snap::SnapshotError);
  }
  {
    snap::Writer w;
    w.put_u64(1);  // rows
    for (int i = 0; i < 4; ++i) w.put_u64(0);  // epoch, ticks, requests
    w.put_u64(u64{1} << 60);  // values
    EpochSampler s = sampler();
    EXPECT_THROW(snap::testing::restore(w.payload(), s), snap::SnapshotError);
  }
}

}  // namespace
}  // namespace bb
