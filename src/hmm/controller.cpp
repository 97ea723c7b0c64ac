#include "hmm/controller.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::hmm {

std::vector<double> HmmStats::latency_bounds_ns() {
  // Fine steps through the HBM/DRAM hit range, widening geometrically into
  // the fault-penalty tail; the overflow bucket catches pathological waits.
  return {20,   40,   60,   80,   100,  120,   140,   160,   180,
          200,  225,  250,  275,  300,  350,   400,   450,   500,
          600,  700,  800,  1000, 1250, 1500,  2000,  3000,  5000,
          7500, 10000, 20000, 50000, 100000};
}

namespace {

/// Points both devices at one core's class-byte slices (or at nothing) for
/// the span of a request, and detaches them on scope exit.
class DeviceCharge {
 public:
  DeviceCharge(mem::DramDevice& hbm, mem::DramDevice& dram, CoreStats* cs)
      : hbm_(hbm), dram_(dram) {
    hbm_.charge_to(cs != nullptr ? &cs->hbm_class_bytes : nullptr);
    dram_.charge_to(cs != nullptr ? &cs->dram_class_bytes : nullptr);
  }
  ~DeviceCharge() {
    hbm_.charge_to(nullptr);
    dram_.charge_to(nullptr);
  }
  DeviceCharge(const DeviceCharge&) = delete;
  DeviceCharge& operator=(const DeviceCharge&) = delete;

 private:
  mem::DramDevice& hbm_;
  mem::DramDevice& dram_;
};

}  // namespace

HybridMemoryController::HybridMemoryController(std::string name,
                                               mem::DramDevice& hbm,
                                               mem::DramDevice& dram,
                                               const PagingConfig& paging)
    : name_(std::move(name)), hbm_(hbm), dram_(dram), paging_(paging) {}

HmmResult HybridMemoryController::access(Addr addr, AccessType type,
                                         Tick now, u32 core_id) {
  // Host-side phase attribution only; the nested device-timing phase in
  // DramDevice::access claims its own (exclusive) share of this span.
  prof::ScopedPhase prof_phase(prof::Phase::kHmmAccess);
  // Per-core byte attribution: both devices charge every byte they move
  // while this request is handled — demand beats plus any fills,
  // writebacks or migrations the design triggers from it — straight into
  // the requesting core's class-byte slices. The guard detaches them on
  // every exit path; drain() runs outside access(), so its traffic has no
  // causing core.
  CoreStats* cs = nullptr;
  if (!core_stats_.empty()) {
    cs = &core_stats_[std::min<std::size_t>(core_id, core_stats_.size() - 1)];
  }
  const DeviceCharge charge(hbm_, dram_, cs);

  const Tick fault = paging_.touch(addr, now);
  HmmResult res = service(addr, type, now + fault);
  res.fault_penalty = fault;
  res.complete += 0;  // service() already accounts from the delayed start

  ++stats_.requests;
  if (type == AccessType::kRead) {
    ++stats_.reads;
  } else {
    ++stats_.writes;
  }
  if (res.served_by_hbm) ++stats_.hbm_served;
  stats_.total_latency += res.complete - now;
  stats_.total_metadata_latency += res.metadata_latency;
  // Both latency histograms have HmmStats' bounds: one bucket lookup.
  const std::size_t bucket =
      stats_.latency_ns.bucket_of(ticks_to_ns(res.complete - now));
  stats_.latency_ns.add(bucket);

  if (cs != nullptr) {
    ++cs->requests;
    if (res.served_by_hbm) ++cs->hbm_served;
    cs->total_latency += res.complete - now;
    cs->latency_ns.add(bucket);
  }
  if (sampler_) sampler_->on_request(now);
  return res;
}

void HybridMemoryController::set_core_count(u32 cores) {
  core_stats_.assign(cores, CoreStats{});
}

void HybridMemoryController::drain(Tick now) {
  // End-of-run queue flush: posted writes drain to the devices so beat,
  // row-state and energy totals are complete before results are
  // assembled (bytes are accounted at arrival). No-op with the queue
  // layer off.
  hbm_.drain_queues(now);
  dram_.drain_queues(now);
}

void HybridMemoryController::set_trace_sink(MemoryTraceSink* sink) {
  trace_ = sink;
  paging_.set_trace_sink(sink);
  // The devices emit fault_injected events; they share the run's sink.
  hbm_.set_trace_sink(sink);
  dram_.set_trace_sink(sink);
}

void HybridMemoryController::register_metrics(MetricRegistry& reg) const {
  // No "requests" counter here: the sampler's fixed `requests` column
  // already reports the per-epoch request count.
  const HmmStats* st = &stats_;
  reg.add_ratio(
      "hbm_serve_rate",
      [st] { return static_cast<double>(st->hbm_served); },
      [st] { return static_cast<double>(st->requests); });
  reg.add_ratio(
      "mean_latency_ns",
      [st] { return ticks_to_ns(st->total_latency); },
      [st] { return static_cast<double>(st->requests); });
  hbm_.register_metrics(reg, "hbm_");
  dram_.register_metrics(reg, "dram_");
  const PagingModel* pg = &paging_;
  reg.add_counter("page_faults", [pg] {
    return static_cast<double>(pg->stats().faults);
  });
  // ECC recovery / degradation probes, only when a fault model is attached
  // so fault-free epoch CSVs keep their column set.
  if (hbm_.faults() != nullptr || dram_.faults() != nullptr) {
    reg.add_counter("due_retries", [st] {
      return static_cast<double>(st->due_retries);
    });
    reg.add_counter("due_unrecovered", [st] {
      return static_cast<double>(st->due_unrecovered);
    });
    const HybridMemoryController* self = this;
    reg.add_gauge("retired_frames", [self] {
      return static_cast<double>(self->fault_posture().retired_frames);
    });
    reg.add_gauge("degraded_sets", [self] {
      return static_cast<double>(self->fault_posture().degraded_sets);
    });
  }
  // Per-core attribution probes (co-run evaluation); registered only when a
  // multi-core table was sized, so single-core epoch CSVs keep their
  // column set. Probes index through the member vector each call — its
  // elements never move after set_core_count.
  if (core_stats_.size() > 1) {
    const std::vector<CoreStats>* cs = &core_stats_;
    for (std::size_t i = 0; i < core_stats_.size(); ++i) {
      const std::string p = "core" + std::to_string(i) + "_";
      reg.add_counter(p + "requests", [cs, i] {
        return static_cast<double>((*cs)[i].requests);
      });
      reg.add_ratio(
          p + "hbm_serve_rate",
          [cs, i] { return static_cast<double>((*cs)[i].hbm_served); },
          [cs, i] { return static_cast<double>((*cs)[i].requests); });
    }
  }
}

void HybridMemoryController::on_warmup_end(Tick now) {
  if (trace_) {
    trace_->emit(TraceEvent(now, "warmup_end", "sim"));
  }
  if (sampler_) sampler_->restart(now);
}

Tick HybridMemoryController::move_data(mem::DramDevice& src, Addr src_addr,
                                       mem::DramDevice& dst, Addr dst_addr,
                                       u64 bytes, Tick now,
                                       mem::TrafficClass cls) {
  const auto rd = src.access(src_addr, bytes, AccessType::kRead, now, cls);
  const auto wr =
      dst.access(dst_addr, bytes, AccessType::kWrite, rd.complete, cls);
  if (movement_hook_) {
    movement_hook_({&src == &hbm_, src_addr, &dst == &hbm_, dst_addr, bytes});
  }
  return wr.complete;
}

Tick HybridMemoryController::swap_data(mem::DramDevice& a, Addr a_addr,
                                       mem::DramDevice& b, Addr b_addr,
                                       u64 bytes, Tick now,
                                       mem::TrafficClass cls) {
  const auto ra = a.access(a_addr, bytes, AccessType::kRead, now, cls);
  const auto rb = b.access(b_addr, bytes, AccessType::kRead, now, cls);
  const Tick buffered = std::max(ra.complete, rb.complete);
  const auto wa = a.access(a_addr, bytes, AccessType::kWrite, buffered, cls);
  const auto wb = b.access(b_addr, bytes, AccessType::kWrite, buffered, cls);
  if (movement_hook_) {
    movement_hook_(
        {&a == &hbm_, a_addr, &b == &hbm_, b_addr, bytes, /*is_swap=*/true});
  }
  return std::max(wa.complete, wb.complete);
}

HybridMemoryController::EccDemand HybridMemoryController::ecc_demand(
    mem::DramDevice& dev, Addr addr, u64 bytes, AccessType type, Tick now,
    mem::TrafficClass cls) {
  EccDemand out;
  out.access = dev.access(addr, bytes, type, now, cls);
  if (out.access.ecc != fault::EccOutcome::kUncorrectable) return out;
  const fault::DeviceFaultState* fs = dev.faults();
  if (fs == nullptr) {  // defensive: a UE implies an attached fault model
    out.unrecovered = true;
    return out;
  }
  Tick backoff = fs->config().due_retry_backoff;
  for (u32 attempt = 0; attempt < fs->config().max_due_retries; ++attempt) {
    ++stats_.due_retries;
    out.access = dev.access(addr, bytes, type, out.access.complete + backoff,
                            cls);
    if (out.access.ecc != fault::EccOutcome::kUncorrectable) {
      ++stats_.due_recovered;
      return out;
    }
    backoff *= 2;
  }
  ++stats_.due_unrecovered;
  out.unrecovered = true;
  return out;
}

DramOnlyController::DramOnlyController(mem::DramDevice& hbm,
                                       mem::DramDevice& dram,
                                       PagingConfig paging)
    : HybridMemoryController(
          "DRAM-only", hbm, dram,
          [&] {
            paging.visible_bytes = dram.capacity();
            return paging;
          }()) {}

HmmResult DramOnlyController::service(Addr addr, AccessType type, Tick now) {
  HmmResult res;
  // HBM absent: all OS addresses fold into the off-chip DRAM.
  const Addr phys = dram().fold(addr);
  const auto r = ecc_demand(dram(), phys, 64, type, now);
  res.complete = r.access.complete;
  res.served_by_hbm = false;
  res.phys_addr = phys;
  if (r.unrecovered && type == AccessType::kRead) {
    // The only copy of the data was unreadable.
    ++mutable_stats().due_data_loss;
  }
  return res;
}

void HybridMemoryController::serialize_base(snap::Archive& ar) {
  ar.u64(stats_.requests);
  ar.u64(stats_.reads);
  ar.u64(stats_.writes);
  ar.u64(stats_.hbm_served);
  ar.u64(stats_.total_latency);
  ar.u64(stats_.total_metadata_latency);
  stats_.latency_ns.serialize(ar);
  ar.u64(stats_.blocks_fetched);
  ar.u64(stats_.fetched_blocks_used);
  ar.u64(stats_.migrations);
  ar.u64(stats_.evictions);
  ar.u64(stats_.mode_switches);
  ar.u64(stats_.swaps);
  ar.u64(stats_.due_retries);
  ar.u64(stats_.due_recovered);
  ar.u64(stats_.due_unrecovered);
  ar.u64(stats_.due_data_loss);
  ar.expect(core_stats_.size(), "per-core slice count");
  for (CoreStats& cs : core_stats_) {
    ar.u64(cs.requests);
    ar.u64(cs.hbm_served);
    ar.u64(cs.total_latency);
    cs.latency_ns.serialize(ar);
    for (u64& b : cs.hbm_class_bytes) ar.u64(b);
    for (u64& b : cs.dram_class_bytes) ar.u64(b);
  }
  paging_.serialize(ar);
}

}  // namespace bb::hmm
