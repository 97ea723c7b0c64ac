#include "sim/system.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bumblebee/controller.h"
#include "common/check.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/stats.h"

namespace bb::sim {

namespace {

/// Filesystem-safe token for snapshot file names (non-alphanumerics
/// collapse to '_'; collisions are harmless because the fingerprint
/// inside the file still pins the exact cell).
std::string sanitize_token(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9');
    out.push_back(ok ? ch : '_');
  }
  return out;
}

/// Appends a device's request-queue shape to a fingerprint: a restore
/// under a different depth, watermark or MSHR setup fails closed.
void put_queue_shape(std::ostream& fp, const mem::QueueConfig& q) {
  fp << q.enabled << '|' << q.queue_depth << '|' << q.write_high_watermark
     << '|' << q.write_low_watermark << '|' << q.mshr_entries << '|'
     << q.mshr_block_bytes << '|';
}

/// Appends the fault model's per-device rates and recovery knobs to a
/// fingerprint: a restore under a different fault rate, ECC latency or
/// retry policy fails closed.
void put_fault_model(std::ostream& fp, const fault::FaultConfig& f) {
  for (const fault::DeviceFaultRates& d : {f.hbm, f.dram}) {
    fp << d.transient_per_access << '|' << d.stuck_row_fraction << '|'
       << d.dead_bank_fraction << '|' << d.dead_channel_fraction << '|';
  }
  fp << f.seed << '|' << f.due_fraction << '|' << f.ce_latency << '|'
     << f.retire_row_after_ces << '|' << f.max_due_retries << '|'
     << f.due_retry_backoff << '|';
}

/// A custom Bumblebee configuration's knobs (everything but its name) in
/// snapshot-fingerprint form: sweep points that differ only in a knob
/// never restore each other's snapshots.
std::string bumblebee_knobs(const bumblebee::BumblebeeConfig& c) {
  std::ostringstream fp;
  fp.precision(std::numeric_limits<double>::max_digits10);
  fp << "bumblebee|" << c.page_bytes << '|' << c.block_bytes << '|'
     << c.hbm_ways << '|' << c.dram_queue_depth << '|' << c.counter_bits
     << '|' << c.switch_fraction << '|' << c.zombie_window << '|'
     << c.flush_batch_sets << '|' << c.sram_latency << '|'
     << c.metadata_in_hbm << '|' << c.degrade_after_retired_frames << '|'
     << c.enable_caching << '|' << c.enable_migration << '|'
     << c.fixed_chbm_fraction << '|' << c.multiplexed_space << '|'
     << static_cast<int>(c.alloc) << '|' << c.high_footprint_actions << '|';
  return fp.str();
}

}  // namespace

std::string config_fingerprint(const SystemConfig& cfg) {
  std::ostringstream fp;
  fp.precision(std::numeric_limits<double>::max_digits10);
  fp << cfg.core.cores << '|' << cfg.core.mlp << '|' << cfg.core.rob_window
     << '|' << cfg.core.freq_ghz << '|' << cfg.hbm.capacity_bytes << '|'
     << cfg.hbm.channels << '|';
  put_queue_shape(fp, cfg.hbm.queue);
  fp << cfg.dram.capacity_bytes << '|' << cfg.dram.channels << '|';
  put_queue_shape(fp, cfg.dram.queue);
  fp << cfg.paging.enabled << '|' << cfg.paging.visible_bytes << '|'
     << cfg.paging.os_page_bytes << '|' << cfg.paging.fault_penalty << '|'
     << cfg.obs.epoch.every_requests << '|' << cfg.obs.epoch.every_ticks
     << '|' << cfg.obs.trace << '|';
  put_fault_model(fp, cfg.fault);
  return fp.str();
}

System::System(SystemConfig cfg) : cfg_(std::move(cfg)) {}

void System::make_devices() {
  design_knobs_.clear();
  hbm_ = std::make_unique<mem::DramDevice>(cfg_.hbm);
  dram_ = std::make_unique<mem::DramDevice>(cfg_.dram);
  hbm_faults_.reset();
  dram_faults_.reset();
  if (cfg_.fault.enabled()) {
    hbm_faults_ = std::make_unique<fault::DeviceFaultState>(
        cfg_.fault, /*is_hbm=*/true, cfg_.seed);
    dram_faults_ = std::make_unique<fault::DeviceFaultState>(
        cfg_.fault, /*is_hbm=*/false, cfg_.seed);
    hbm_->attach_faults(hbm_faults_.get(), "hbm");
    dram_->attach_faults(dram_faults_.get(), "dram");
  }
}

RunResult System::run(const std::string& design,
                      const trace::WorkloadProfile& workload,
                      u64 instructions, const LaneSources& lane_sources) {
  make_devices();
  hmmc_ = baselines::make_design(design, *hbm_, *dram_, cfg_.paging);
  return run_current(workload, instructions, lane_sources);
}

RunResult System::run_bumblebee(const bumblebee::BumblebeeConfig& cfg,
                                const trace::WorkloadProfile& workload,
                                u64 instructions,
                                const LaneSources& lane_sources) {
  make_devices();
  design_knobs_ = bumblebee_knobs(cfg);
  hmmc_ = std::make_unique<bumblebee::BumblebeeController>(cfg, *hbm_, *dram_,
                                                           cfg_.paging);
  return run_current(workload, instructions, lane_sources);
}

RunResult System::run_mix(const std::string& design,
                          const std::vector<CoreLane>& lanes,
                          const std::string& mix_name,
                          u64 per_core_instructions) {
  make_devices();
  hmmc_ = baselines::make_design(design, *hbm_, *dram_, cfg_.paging);
  return run_lanes_current(
      lanes, per_core_instructions * std::max<u64>(1, lanes.size()),
      mix_name, /*attach_core_perf=*/true);
}

RunResult System::run_current(const trace::WorkloadProfile& workload,
                              u64 instructions,
                              const LaneSources& lane_sources) {
  return run_lanes_current(
      CoreModel::homogeneous_lanes(workload, cfg_.seed, cfg_.core.cores),
      instructions, workload.name, /*attach_core_perf=*/false,
      /*replay=*/nullptr, lane_sources);
}

RunResult System::run_replay(const std::string& design,
                             trace::TraceSource& source,
                             const std::string& trace_name,
                             u64 instructions) {
  make_devices();
  hmmc_ = baselines::make_design(design, *hbm_, *dram_, cfg_.paging);
  // One lane: a captured trace already merges every core's traffic.
  return run_lanes_current(std::vector<CoreLane>(1), instructions, trace_name,
                           /*attach_core_perf=*/false, &source);
}

RunResult System::run_lanes_current(const std::vector<CoreLane>& lanes,
                                    u64 total_instructions,
                                    const std::string& workload_name,
                                    bool attach_core_perf,
                                    trace::TraceSource* replay,
                                    const LaneSources& lane_sources) {
  CoreModel core(cfg_.core);
  core.set_capture(cfg_.capture);
  hmmc_->set_core_count(static_cast<u32>(lanes.size()));

  // Trace sources are built here rather than inside the core model so a
  // snapshot can save and restore their cursors alongside the rest of
  // the simulator state.
  BB_CHECK(!lanes.empty(), "a run needs at least one lane");
  std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
  std::vector<trace::TraceSource*> sources;
  std::vector<Addr> bases;
  if (replay != nullptr) {
    // One lane: a captured trace already merges every core's traffic.
    sources.push_back(replay);
    bases.push_back(0);
  } else {
    BB_CHECK(lane_sources.empty() || lane_sources.size() == lanes.size(),
             "lane sources must match the lanes one to one");
    gens.reserve(lanes.size());
    sources = lane_sources;
    bases.reserve(lanes.size());
    for (const CoreLane& lane : lanes) {
      if (lane_sources.empty()) {
        gens.push_back(
            std::make_unique<trace::TraceGenerator>(lane.profile, lane.seed));
        sources.push_back(gens.back().get());
      }
      bases.push_back(lane.base);
    }
  }

  // Observability attachments (all per-run and buffered in memory, so the
  // run itself stays deterministic and jobs-independent).
  MemoryTraceSink sink;
  std::unique_ptr<EpochSampler> sampler;
  if (cfg_.obs.trace) hmmc_->set_trace_sink(&sink);
  if (cfg_.obs.epoch.enabled()) {
    MetricRegistry registry;
    hmmc_->register_metrics(registry);
    sampler = std::make_unique<EpochSampler>(cfg_.obs.epoch,
                                             std::move(registry));
    hmmc_->set_epoch_sampler(sampler.get());
  }

  const u64 warmup = static_cast<u64>(
      cfg_.warmup_ratio * static_cast<double>(total_instructions));

  // ---- crash-tolerance: snapshot path, fingerprint, restore ------------
  const bool snapshotting = cfg_.snapshot.configured();
  std::string snap_path;
  std::string fingerprint;
  if (snapshotting) {
    const char* kind = replay != nullptr    ? "replay"
                       : attach_core_perf   ? "mix"
                                            : "run";
    if (cfg_.capture != nullptr) {
      throw std::invalid_argument(
          "trace capture cannot be combined with snapshots");
    }
    snap_path = cfg_.snapshot.dir + "/" + kind + "__" +
                sanitize_token(hmmc_->name()) + "__" +
                sanitize_token(workload_name) + ".bbsnap";
    // The fingerprint pins the cell (kind, design, workload, seed, budget,
    // lanes, warmup) and every configuration axis that shapes the run;
    // restoring under a different configuration fails closed.
    std::ostringstream fp;
    fp << kind << '|' << hmmc_->name() << '|' << workload_name << '|'
       << cfg_.seed << '|' << total_instructions << '|' << lanes.size()
       << '|' << warmup << '|' << config_fingerprint(cfg_) << design_knobs_;
    fingerprint = fp.str();
  }

  // The one checkpoint body: a commit saves every layer in this order and
  // a restore loads them back in the same order; every layer fails closed
  // (SnapshotError) on a shape or presence mismatch.
  const auto checkpoint = [&](snap::Archive& ar, RunLoopState& ls) {
    std::string stored = fingerprint;
    ar.str(stored);
    if (stored != fingerprint) {
      throw snap::SnapshotError(
          "snapshot does not match this run's configuration: " + snap_path);
    }
    ls.serialize(ar);
    for (trace::TraceSource* src : sources) src->serialize(ar);
    hbm_->serialize(ar);
    dram_->serialize(ar);
    ar.presence(hbm_faults_ != nullptr, "fault-model");
    ar.presence(dram_faults_ != nullptr, "fault-model");
    if (hbm_faults_) hbm_faults_->serialize(ar);
    if (dram_faults_) dram_faults_->serialize(ar);
    hmmc_->serialize(ar);
    ar.optional(sampler.get(), "epoch-sampler");
    ar.optional(cfg_.obs.trace ? &sink : nullptr, "trace-sink");
  };

  RunLoopState resume_state;
  RunControl control;
  const bool want_restore = snapshotting &&
                            (cfg_.snapshot.restore || restore_once_) &&
                            snap::file_exists(snap_path);
  restore_once_ = false;
  if (want_restore) {
    snap::Reader r(snap_path);
    snap::Archive ar(r);
    checkpoint(ar, resume_state);
    if (!r.at_end()) {
      throw snap::SnapshotError("trailing bytes after snapshot payload");
    }
    control.resume = &resume_state;
  }

  if (snapshotting && cfg_.snapshot.interval_records > 0) {
    control.checkpoint_every_records = cfg_.snapshot.interval_records;
    control.on_checkpoint = [&](RunLoopState& ls) {
      snap::Writer w;
      snap::Archive ar(w);
      checkpoint(ar, ls);
      w.commit(snap_path);
    };
  }
  control.interrupted = interrupt_;

  // The control block costs one branch per 64 Ki records; skip it entirely
  // when neither snapshots nor a watchdog are in play so the hot path is
  // bit-for-bit the historical loop.
  const RunControl* ctrl = (snapshotting || interrupt_) ? &control : nullptr;
  const CoreResult cr = core.run_sources(sources, bases, total_instructions,
                                         *hmmc_, warmup, ctrl);

  if (snapshotting) {
    // The run completed: its snapshot (and any torn temp file) is spent.
    std::remove(snap_path.c_str());
    std::remove((snap_path + ".tmp").c_str());
  }

  if (sampler) sampler->finish();
  hmmc_->set_epoch_sampler(nullptr);
  hmmc_->set_trace_sink(nullptr);

  // Everything below is end-of-run stats assembly: host-side profiling
  // bills it to stats-commit. No prof value feeds the RunResult fields.
  prof::ScopedPhase prof_phase(prof::Phase::kStatsCommit);

  RunResult out;
  out.design = hmmc_->name();
  out.workload = workload_name;
  out.instructions = cr.instructions;
  out.misses = cr.misses;
  out.ipc = cr.ipc(cfg_.core.freq_ghz);

  const auto& hs = hbm_->stats();
  const auto& ds = dram_->stats();
  out.hbm_bytes = hs.total_bytes();
  out.dram_bytes = ds.total_bytes();
  for (std::size_t c = 0; c < mem::kTrafficClassCount; ++c) {
    out.hbm_class_bytes[c] = hs.read_bytes[c] + hs.write_bytes[c];
    out.dram_class_bytes[c] = ds.read_bytes[c] + ds.write_bytes[c];
  }
  out.energy_mj =
      (hbm_->energy().dynamic_pj() + dram_->energy().dynamic_pj()) * 1e-9;

  const auto& ms = hmmc_->stats();
  out.hbm_serve_rate = ms.hbm_serve_rate();
  out.mean_latency_ns = ms.mean_latency_ns();
  out.latency_p50_ns = ms.latency_ns.quantile(0.50);
  out.latency_p90_ns = ms.latency_ns.quantile(0.90);
  out.latency_p99_ns = ms.latency_ns.quantile(0.99);
  out.latency_p999_ns = ms.latency_ns.quantile(0.999);
  out.mal_fraction = ms.mal_fraction();
  out.overfetch = ms.overfetch_fraction();
  out.page_faults = hmmc_->paging().stats().faults;
  out.metadata_sram_bytes = hmmc_->metadata_sram_bytes();

  if (hbm_->queue_stats() != nullptr || dram_->queue_stats() != nullptr) {
    // Aggregate both devices' scheduler stats into one request-weighted
    // view (a device without queues contributes nothing).
    mem::QueueStats q;
    for (const mem::QueueStats* s :
         {hbm_->queue_stats(), dram_->queue_stats()}) {
      if (s == nullptr) continue;
      q.reads_issued += s->reads_issued;
      q.reads_coalesced += s->reads_coalesced;
      q.writes_enqueued += s->writes_enqueued;
      q.writes_drained += s->writes_drained;
      q.write_drain_count += s->write_drain_count;
      q.write_queue_full_stalls += s->write_queue_full_stalls;
      q.queueing_latency_sum += s->queueing_latency_sum;
      q.read_queue_latency_sum += s->read_queue_latency_sum;
      q.req_queue_length_sum += s->req_queue_length_sum;
      q.queue_length_samples += s->queue_length_samples;
    }
    out.queueing_latency_avg = q.queueing_latency_avg_ns();
    out.read_queue_latency_avg = q.read_queue_latency_avg_ns();
    out.req_queue_length_avg = q.req_queue_length_avg();
    out.write_drain_count = q.write_drain_count;
  }

  out.ce_count = hs.ce_count + ds.ce_count;
  out.ue_count = hs.ue_count + ds.ue_count;
  out.due_retries = ms.due_retries;
  out.due_unrecovered = ms.due_unrecovered;
  out.due_data_loss = ms.due_data_loss;
  if (hbm_faults_) out.retired_rows += hbm_faults_->retired_rows();
  if (dram_faults_) out.retired_rows += dram_faults_->retired_rows();
  const hmm::FaultPosture posture = hmmc_->fault_posture();
  out.retired_frames = posture.retired_frames;
  out.degraded_sets = posture.degraded_sets;

  if (cfg_.obs.enabled()) {
    auto art = std::make_shared<RunArtifacts>();
    if (sampler) {
      art->epoch_columns = sampler->registry().names();
      art->epochs = sampler->rows();
    }
    art->events = sink.take();
    out.artifacts = std::move(art);
  }

  if (attach_core_perf) {
    const auto& core_stats = hmmc_->core_stats();
    auto perf = std::make_shared<std::vector<CorePerf>>();
    u64 req_sum = 0, served_sum = 0, inst_sum = 0, miss_sum = 0;
    u64 hbm_byte_sum = 0, dram_byte_sum = 0;
    Tick latency_sum = 0;
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      CorePerf p;
      p.core = static_cast<u32>(c);
      p.workload = lanes[c].profile.name;
      p.instructions = cr.per_core[c].instructions;
      p.misses = cr.per_core[c].misses;
      p.ipc = cr.per_core[c].ipc(cfg_.core.freq_ghz);
      inst_sum += p.instructions;
      miss_sum += p.misses;
      if (c < core_stats.size()) {
        const hmm::CoreStats& cs = core_stats[c];
        p.hbm_serve_rate = cs.hbm_serve_rate();
        p.mean_latency_ns = cs.mean_latency_ns();
        p.latency_p50_ns = cs.latency_ns.quantile(0.50);
        p.latency_p99_ns = cs.latency_ns.quantile(0.99);
        p.hbm_bytes = cs.hbm_bytes();
        p.dram_bytes = cs.dram_bytes();
        req_sum += cs.requests;
        served_sum += cs.hbm_served;
        latency_sum += cs.total_latency;
        hbm_byte_sum += p.hbm_bytes;
        dram_byte_sum += p.dram_bytes;
      }
      perf->push_back(std::move(p));
    }
    // Attribution must conserve the aggregate counters: every measured
    // request, HBM-served request and latency tick belongs to exactly one
    // core; instructions/misses partition across lanes. Device bytes are
    // charged by causation, so their per-core sums are bounded by the
    // device totals (end-of-run drain traffic has no causing core).
    BB_CHECK(req_sum == ms.requests,
             "per-core request counts must sum to the aggregate");
    BB_CHECK(served_sum == ms.hbm_served,
             "per-core HBM-served counts must sum to the aggregate");
    BB_CHECK(latency_sum == ms.total_latency,
             "per-core latency must sum to the aggregate");
    BB_CHECK(inst_sum == cr.instructions,
             "per-core instructions must partition the total");
    BB_CHECK(miss_sum == cr.misses,
             "per-core misses must partition the total");
    BB_CHECK(hbm_byte_sum <= out.hbm_bytes,
             "per-core HBM bytes cannot exceed the device total");
    BB_CHECK(dram_byte_sum <= out.dram_bytes,
             "per-core DRAM bytes cannot exceed the device total");
    // Checked builds consume the sums above; keep release builds quiet.
    (void)req_sum;
    (void)served_sum;
    (void)latency_sum;
    (void)inst_sum;
    (void)miss_sum;
    (void)hbm_byte_sum;
    (void)dram_byte_sum;
    out.core_perf = std::move(perf);
  }
  return out;
}

GroupedMetric group_by_mpki(const std::vector<RunResult>& results,
                            const std::vector<RunResult>& baseline,
                            double (*metric)(const RunResult&)) {
  std::map<std::string, const RunResult*> base_by_workload;
  for (const auto& b : baseline) base_by_workload[b.workload] = &b;

  std::vector<double> high, medium, low, all;
  for (const auto& r : results) {
    const auto it = base_by_workload.find(r.workload);
    if (it == base_by_workload.end()) continue;
    const double denom = metric(*it->second);
    if (denom <= 0) continue;
    const double v = metric(r) / denom;
    const auto& prof = trace::WorkloadProfile::by_name(r.workload);
    switch (prof.mpki_class) {
      case trace::MpkiClass::kHigh: high.push_back(v); break;
      case trace::MpkiClass::kMedium: medium.push_back(v); break;
      case trace::MpkiClass::kLow: low.push_back(v); break;
    }
    all.push_back(v);
  }
  GroupedMetric g;
  g.high = geomean(high);
  g.medium = geomean(medium);
  g.low = geomean(low);
  g.all = geomean(all);
  return g;
}

GroupedMetric group_by_mpki_sums(const std::vector<RunResult>& results,
                                 const std::vector<RunResult>& baseline,
                                 double (*metric)(const RunResult&)) {
  std::map<std::string, const RunResult*> base_by_workload;
  for (const auto& b : baseline) base_by_workload[b.workload] = &b;

  double num[4] = {0, 0, 0, 0};  // high, medium, low, all
  double den[4] = {0, 0, 0, 0};
  for (const auto& r : results) {
    const auto it = base_by_workload.find(r.workload);
    if (it == base_by_workload.end()) continue;
    const auto& prof = trace::WorkloadProfile::by_name(r.workload);
    const int g = prof.mpki_class == trace::MpkiClass::kHigh     ? 0
                  : prof.mpki_class == trace::MpkiClass::kMedium ? 1
                                                                 : 2;
    num[g] += metric(r);
    den[g] += metric(*it->second);
    num[3] += metric(r);
    den[3] += metric(*it->second);
  }
  GroupedMetric out;
  out.high = den[0] > 0 ? num[0] / den[0] : 0;
  out.medium = den[1] > 0 ? num[1] / den[1] : 0;
  out.low = den[2] > 0 ? num[2] / den[2] : 0;
  out.all = den[3] > 0 ? num[3] / den[3] : 0;
  return out;
}

double metric_ipc(const RunResult& r) { return r.ipc; }
double metric_hbm_traffic(const RunResult& r) {
  return static_cast<double>(r.hbm_bytes);
}
double metric_dram_traffic(const RunResult& r) {
  return static_cast<double>(r.dram_bytes);
}
double metric_energy(const RunResult& r) { return r.energy_mj; }

u64 default_instructions_for(const trace::WorkloadProfile& w,
                             u64 target_misses, u64 min_instructions,
                             u64 max_instructions) {
  const double inst =
      static_cast<double>(target_misses) * 1000.0 / w.mpki;
  u64 budget = static_cast<u64>(inst);
  budget = std::clamp(budget, min_instructions, max_instructions);
  return std::max<u64>(budget, 1'000'000);
}

}  // namespace bb::sim
