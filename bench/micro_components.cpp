// Component microbenchmarks (google-benchmark): throughput of the hot
// simulation paths — these bound how many instructions per second the
// full-system harnesses can replay.
#include <benchmark/benchmark.h>

#include "bumblebee/controller.h"
#include "bumblebee/hot_table.h"
#include "cache/cache.h"
#include "common/rng.h"
#include "mem/dram_device.h"
#include "trace/generator.h"

using namespace bb;

static void BM_DramDeviceAccess(benchmark::State& state) {
  mem::DramDevice dev(mem::DramTimingParams::hbm2_1gb());
  Rng rng(1);
  Tick now = 0;
  for (auto _ : state) {
    now += 5000;
    benchmark::DoNotOptimize(
        dev.access(rng.next_below(dev.capacity()), 64, AccessType::kRead,
                   now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDeviceAccess);

static void BM_DramDevicePageMove(benchmark::State& state) {
  mem::DramDevice dev(mem::DramTimingParams::ddr4_3200_10gb());
  Rng rng(2);
  Tick now = 0;
  for (auto _ : state) {
    now += 200000;
    benchmark::DoNotOptimize(dev.access(
        rng.next_below(dev.capacity() / (64 * KiB)) * (64 * KiB), 64 * KiB,
        AccessType::kRead, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDevicePageMove);

static void BM_TraceGenerator(benchmark::State& state) {
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("mcf"), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGenerator);

static void BM_HotTableTouch(benchmark::State& state) {
  bumblebee::HotTables tables(1, 8, 8, 4095);
  bumblebee::HotTable hot = tables[0];
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hot.touch_dram(
        static_cast<u32>(rng.next_below(88))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotTableTouch);

static void BM_CacheAccess(benchmark::State& state) {
  cache::CacheParams p;
  p.size_bytes = 8 * MiB;
  p.ways = 16;
  cache::Cache cache(p);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(rng.next_below(64 * MiB), AccessType::kRead));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

static void BM_BumblebeeAccess(benchmark::State& state) {
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  mem::DramDevice dram(mem::DramTimingParams::ddr4_3200_10gb());
  bumblebee::BumblebeeController ctl(bumblebee::BumblebeeConfig::baseline(),
                                     hbm, dram);
  trace::TraceGenerator gen(trace::WorkloadProfile::by_name("mcf"), 6);
  Tick now = 0;
  for (auto _ : state) {
    const auto rec = gen.next();
    now += rec.inst_gap * 70;
    benchmark::DoNotOptimize(ctl.access(rec.addr, rec.type, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BumblebeeAccess);

static void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(100000, 1.1);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

BENCHMARK_MAIN();
