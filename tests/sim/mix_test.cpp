// Multi-programmed mix subsystem: spec parsing, lane layout, per-core
// attribution invariants, speedup/fairness accounting, equivalence of
// homogeneous mixes with single-profile runs, and --jobs independence of
// every mix output.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "hmm/controller.h"
#include "sim/experiment.h"
#include "sim/system.h"

namespace bb::sim {
namespace {

SystemConfig mix_config() {
  SystemConfig cfg;
  cfg.warmup_ratio = 0.5;
  return cfg;
}

RunMatrixOptions mix_opts(unsigned jobs) {
  RunMatrixOptions opts;
  opts.jobs = jobs;
  opts.instructions = 150'000;  // per-core budget
  return opts;
}

TEST(MixSpec, ParsesPlusJoinedWorkloadNames) {
  const MixSpec m = MixSpec::parse("mcf+lbm+xz");
  EXPECT_EQ(m.name, "mcf+lbm+xz");
  EXPECT_EQ(m.workloads,
            (std::vector<std::string>{"mcf", "lbm", "xz"}));
  EXPECT_EQ(m.cores(), 3u);
  EXPECT_FALSE(m.homogeneous());
  EXPECT_TRUE(MixSpec::parse("mcf+mcf").homogeneous());
}

TEST(MixSpec, ParsesPresetsByName) {
  for (const auto& preset : MixSpec::presets()) {
    const MixSpec m = MixSpec::parse(preset.name);
    EXPECT_EQ(m.workloads, preset.workloads);
    // Presets resolve to real Table II profiles.
    EXPECT_EQ(m.resolve().size(), m.workloads.size());
  }
  EXPECT_EQ(mix_names().size(), MixSpec::presets().size());
}

TEST(MixSpec, RejectsUnknownWorkloadsListingValidNames) {
  try {
    MixSpec::parse("mcf+nonesuch");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload: nonesuch"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("mcf"), std::string::npos) << msg;
  }
  EXPECT_THROW(MixSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(MixSpec::parse("mcf++lbm"), std::invalid_argument);
  EXPECT_THROW(MixSpec::parse("mcf+"), std::invalid_argument);
}

TEST(MixSpec, HeterogeneousLanesGetDisjointAlignedBases) {
  const MixSpec m = MixSpec::parse("mixed-locality4");
  const auto lanes = m.lanes(/*seed=*/42);
  ASSERT_EQ(lanes.size(), 4u);
  std::vector<std::pair<Addr, Addr>> spans;  // [base, base + footprint)
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.base % (64 * KiB), 0u);
    spans.emplace_back(lane.base,
                       lane.base + lane.profile.footprint_bytes());
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].first, spans[i - 1].second)
        << "lane footprints overlap";
  }
  // Seeds are distinct and follow the homogeneous derivation.
  std::set<u64> seeds;
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    EXPECT_EQ(lanes[c].seed, 42 + 0x1000003ULL * c);
    seeds.insert(lanes[c].seed);
  }
  EXPECT_EQ(seeds.size(), lanes.size());

  // Homogeneous mixes share one address space (base 0 everywhere).
  for (const auto& lane : MixSpec::parse("mcf+mcf").lanes(42)) {
    EXPECT_EQ(lane.base, 0u);
  }
}

TEST(MixSpec, TotalFootprintSumsPerCoreFootprints) {
  const MixSpec m = MixSpec::parse("mcf+lbm");
  const u64 expected =
      trace::WorkloadProfile::by_name("mcf").footprint_bytes() +
      trace::WorkloadProfile::by_name("lbm").footprint_bytes();
  EXPECT_EQ(m.total_footprint_bytes(), expected);
}

TEST(Mix, HomogeneousMixReproducesSingleProfileRun) {
  // A homogeneous mix must replay the exact streams of the existing
  // multi-core single-profile run: same seeds, shared address base, same
  // total budget — so every exported scalar matches bit-for-bit.
  SystemConfig cfg = mix_config();
  cfg.core.cores = 2;

  System single(cfg);
  RunResult a = single.run(
      "Bumblebee", trace::WorkloadProfile::by_name("mcf"), 300'000);

  System mixed(cfg);
  const MixSpec m = MixSpec::parse("mcf+mcf");
  RunResult b = mixed.run_mix("Bumblebee", m.lanes(cfg.seed), m.name,
                              /*per_core_instructions=*/150'000);
  ASSERT_NE(b.core_perf, nullptr);
  b.workload = a.workload;  // only the label differs by construction
  // The exported run objects compare; b's journal line would also carry
  // its per-core rows.
  const auto json = [](const RunResult& r) {
    ExperimentRunner runner;
    runner.add(r);
    std::ostringstream os;
    runner.write_json(os);
    return os.str();
  };
  EXPECT_EQ(json(a), json(b));
}

TEST(Mix, PerCoreStatsSumToAggregate) {
  SystemConfig cfg = mix_config();
  System system(cfg);
  const MixSpec m = MixSpec::parse("mixed-locality4");
  const RunResult r =
      system.run_mix("Bumblebee", m.lanes(cfg.seed), m.name, 100'000);
  ASSERT_NE(r.core_perf, nullptr);
  ASSERT_EQ(r.core_perf->size(), 4u);

  u64 inst = 0, misses = 0, hbm_bytes = 0, dram_bytes = 0;
  for (const auto& c : *r.core_perf) {
    inst += c.instructions;
    misses += c.misses;
    hbm_bytes += c.hbm_bytes;
    dram_bytes += c.dram_bytes;
    EXPECT_GE(c.hbm_serve_rate, 0.0);
    EXPECT_LE(c.hbm_serve_rate, 1.0);
    EXPECT_LE(c.latency_p50_ns, c.latency_p99_ns);
  }
  EXPECT_EQ(inst, r.instructions);
  EXPECT_EQ(misses, r.misses);
  // Device bytes are attributed by causation; the end-of-run drain has no
  // causing core, so per-core sums are bounded by (not equal to) totals.
  EXPECT_LE(hbm_bytes, r.hbm_bytes);
  EXPECT_LE(dram_bytes, r.dram_bytes);
  EXPECT_GT(hbm_bytes, 0u);
}

/// FNV-1a 64 over every exact CoreStats counter of every core slice.
u64 core_stats_hash(const std::vector<hmm::CoreStats>& cores) {
  u64 h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const hmm::CoreStats& cs : cores) {
    mix(cs.requests);
    mix(cs.hbm_served);
    mix(cs.total_latency);
    for (u64 b : cs.hbm_class_bytes) mix(b);
    for (u64 b : cs.dram_class_bytes) mix(b);
  }
  return h;
}

// Pins the exact per-core attribution (requests, serves, latency and every
// class-byte counter on both devices) of 4-lane co-runs, on the direct
// device path and behind FR-FCFS queues, for a design that fills and one
// that migrates.
TEST(Mix, PerCoreClassBytesArePinned) {
  struct Case {
    const char* design;
    bool queued;
    u64 hash;
  };
  const Case cases[] = {
      {"Bumblebee", false, 0x8496f05f2cefbef7ULL},
      {"Bumblebee", true, 0x1ad4f6710a0f906bULL},
      {"Hybrid2", false, 0x5a6fa7daff6d45d0ULL},
      {"Hybrid2", true, 0xfb6bfc17f93f8450ULL},
  };
  for (const Case& c : cases) {
    SystemConfig cfg = mix_config();
    if (c.queued) {
      cfg.hbm.queue = mem::QueueConfig::fr_fcfs();
      cfg.dram.queue = mem::QueueConfig::fr_fcfs();
    }
    System system(cfg);
    const MixSpec m = MixSpec::parse("mixed-locality4");
    system.run_mix(c.design, m.lanes(cfg.seed), m.name, 100'000);
    const auto& cores = system.last_controller()->core_stats();
    ASSERT_EQ(cores.size(), 4u);
    for (const hmm::CoreStats& cs : cores) {
      EXPECT_GT(cs.hbm_bytes(), 0u) << c.design;
      EXPECT_GT(cs.dram_bytes(), 0u) << c.design;
    }
    EXPECT_EQ(core_stats_hash(cores), c.hash)
        << c.design << (c.queued ? " queued" : " direct") << " 0x" << std::hex
        << core_stats_hash(cores);
  }
}

TEST(Mix, MatrixScoresAgainstAloneBaselines) {
  ExperimentRunner runner(mix_config());
  runner.run_mix_matrix({"DRAM-only", "Bumblebee"},
                        {MixSpec::parse("cachecap2")}, mix_opts(1));
  // results() holds the co-runs, labelled by mix name; the alone baselines
  // only score them.
  ASSERT_EQ(runner.results().size(), 2u);
  EXPECT_EQ(runner.results()[0].workload, "cachecap2");

  SystemConfig alone_cfg = mix_config();
  alone_cfg.core.cores = 1;
  System alone(alone_cfg);
  for (const auto& r : runner.results()) {
    ASSERT_NE(r.core_perf, nullptr);
    ASSERT_EQ(r.core_perf->size(), 2u);
    double ws = 0, inv = 0, max_sd = 0;
    for (const auto& c : *r.core_perf) {
      // Each core's baseline is the workload run alone on one core under
      // the same design and per-core budget.
      const RunResult base = alone.run(
          r.design, trace::WorkloadProfile::by_name(c.workload), 150'000);
      EXPECT_DOUBLE_EQ(c.alone_ipc, base.ipc);
      ASSERT_GT(c.alone_ipc, 0.0);
      EXPECT_DOUBLE_EQ(c.speedup, c.ipc / c.alone_ipc);
      ws += c.speedup;
      inv += 1.0 / c.speedup;
      max_sd = std::max(max_sd, 1.0 / c.speedup);
    }
    EXPECT_DOUBLE_EQ(r.weighted_speedup, ws);
    EXPECT_DOUBLE_EQ(r.hmean_speedup, 2.0 / inv);
    EXPECT_DOUBLE_EQ(r.max_slowdown, max_sd);
    // Sharing the memory system cannot speed a core up in aggregate.
    EXPECT_LT(r.weighted_speedup, 2.0 + 1e-9);
  }
}

// Fuzz-style negative coverage: arbitrary byte soup handed to MixSpec::parse
// must either produce a spec or throw invalid_argument — never crash. Covers
// embedded '+', NUL-ish control bytes, and non-UTF8 (0x80..0xFF) input.
TEST(MixSpecFuzz, ParseNeverCrashesOnGarbage) {
  SplitMix64 rng(0x313D5u);
  u32 parsed = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string spec;
    const u64 len = rng.next() % 32;
    for (u64 i = 0; i < len; ++i) {
      // Bias towards '+' and letters so separators get exercised, but keep
      // raw high bytes in the mix.
      const u64 pick = rng.next();
      if (pick % 4 == 0) {
        spec.push_back('+');
      } else if (pick % 4 == 1) {
        spec.push_back(static_cast<char>('a' + (pick >> 8) % 26));
      } else {
        spec.push_back(static_cast<char>(pick & 0xFF));
      }
    }
    try {
      const MixSpec m = MixSpec::parse(spec);
      (void)m.cores();
      ++parsed;
    } catch (const std::invalid_argument&) {
      // the overwhelmingly common outcome
    }
  }
  // Sanity: the fuzz loop must not have been short-circuited somehow.
  EXPECT_LT(parsed, 2000u);
}

TEST(Mix, OutputsByteIdenticalAcrossJobs) {
  SystemConfig cfg = mix_config();
  cfg.obs.epoch.every_requests = 500;
  cfg.obs.trace = true;
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee"};
  const std::vector<MixSpec> mixes = {MixSpec::parse("cachecap2"),
                                      MixSpec::parse("mcf+xz")};

  ExperimentRunner serial(cfg);
  serial.run_mix_matrix(designs, mixes, mix_opts(1));
  ExperimentRunner parallel(cfg);
  parallel.run_mix_matrix(designs, mixes, mix_opts(4));

  const auto render = [](const ExperimentRunner& r) {
    std::ostringstream csv, json, mix_csv, mix_json, epoch, jsonl, chrome;
    r.write_csv(csv);
    r.write_json(json);
    r.write_mix_csv(mix_csv);
    r.write_mix_json(mix_json);
    r.write_epoch_csv(epoch);
    r.write_trace(jsonl, ExperimentRunner::TraceFormat::kJsonl);
    r.write_trace(chrome, ExperimentRunner::TraceFormat::kChrome);
    return std::vector<std::string>{csv.str(),  json.str(),
                                    mix_csv.str(), mix_json.str(),
                                    epoch.str(), jsonl.str(), chrome.str()};
  };
  const auto a = render(serial);
  const auto b = render(parallel);
  EXPECT_EQ(a[0], b[0]);  // aggregate CSV
  EXPECT_EQ(a[1], b[1]);  // aggregate JSON
  EXPECT_EQ(a[2], b[2]);  // per-core mix CSV
  EXPECT_EQ(a[3], b[3]);  // mix JSON
  EXPECT_EQ(a[4], b[4]);  // epoch CSV
  EXPECT_EQ(a[5], b[5]);  // JSONL trace
  EXPECT_EQ(a[6], b[6]);  // Chrome trace

  // The mix outputs really carry the co-run study: per-core rows, speedup
  // columns and per-core epoch metrics.
  EXPECT_NE(a[2].find("weighted_speedup"), std::string::npos);
  EXPECT_NE(a[3].find("\"alone_ipc\":"), std::string::npos);
  EXPECT_NE(a[4].find("core0_requests"), std::string::npos);
  EXPECT_NE(a[4].find("core1_hbm_serve_rate"), std::string::npos);
}

}  // namespace
}  // namespace bb::sim
