#include "baselines/mempod.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/trace_event.h"

namespace bb::baselines {

MemPodController::MemPodController(mem::DramDevice& hbm,
                                   mem::DramDevice& dram,
                                   hmm::PagingConfig paging,
                                   const MemPodConfig& cfg)
    : HybridMemoryController(
          "MemPod", hbm, dram,
          [&] {
            // The init list below divides by page_bytes and by pods.
            if (cfg.page_bytes == 0 || cfg.pods == 0) {
              throw std::invalid_argument("MemPod needs pages and pods > 0");
            }
            paging.visible_bytes = dram.capacity() + hbm.capacity();
            return paging;
          }()),
      cfg_(cfg),
      hbm_pages_per_pod_(hbm.capacity() / cfg.page_bytes / cfg.pods),
      dram_pages_per_pod_(dram.capacity() / cfg.page_bytes / cfg.pods) {
  if (hbm_pages_per_pod_ == 0 || dram_pages_per_pod_ == 0) {
    throw std::invalid_argument("MemPod pod holds no HBM or no DRAM page");
  }
  const std::size_t pods = cfg_.pods;
  const std::size_t pages =
      pods * (hbm_pages_per_pod_ + dram_pages_per_pod_);
  frame_xor_page_ = ZeroArray<u32>(pages);
  page_xor_frame_ = ZeroArray<u32>(pages);
  mea_ = ZeroArray<MeaEntry>(pods * cfg_.mea_counters);
  hbm_access_ = ZeroArray<u32>(pods * hbm_pages_per_pod_);
  next_interval_ = ZeroArray<Tick>(pods);
}

u64 MemPodController::metadata_sram_bytes() const {
  // Full remap table (4 B per page both directions) + MEA counters.
  const u64 pages = hbm_pages_per_pod_ + dram_pages_per_pod_;
  return static_cast<u64>(cfg_.pods) *
         (pages * 8 + cfg_.mea_counters * 12);
}

void MemPodController::mea_touch(u32 pod, u64 page) {
  // Majority Element Algorithm: increment the page's counter if tracked;
  // otherwise claim a zero-count slot; otherwise decrement everyone.
  for (auto& e : mea(pod)) {
    if (e.count > 0 && e.page == page) {
      ++e.count;
      return;
    }
  }
  for (auto& e : mea(pod)) {
    if (e.count == 0) {
      e.page = page;
      e.count = 1;
      return;
    }
  }
  for (auto& e : mea(pod)) {
    --e.count;
  }
}

void MemPodController::run_interval(u32 pod_idx, Tick now) {
  // Sort MEA candidates hottest-first (only those still in far memory).
  const std::span<u32> hbm_access = this->hbm_access(pod_idx);
  std::vector<MeaEntry> cands;
  for (const auto& e : mea(pod_idx)) {
    if (e.count > 0 && frame_of(pod_idx, e.page) < dram_pages_per_pod_) {
      cands.push_back(e);
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const MeaEntry& a, const MeaEntry& b) {
              return a.count > b.count;
            });

  // Coldest HBM frames by interval access count (HBM frames are the
  // frames at and above the DRAM slice), ranked only for a candidate.
  std::vector<u32> frames(cands.empty() ? 0 : hbm_pages_per_pod_);
  std::iota(frames.begin(), frames.end(),
            static_cast<u32>(dram_pages_per_pod_));
  std::sort(frames.begin(), frames.end(), [&](u32 a, u32 b) {
    return hbm_access[a - dram_pages_per_pod_] <
           hbm_access[b - dram_pages_per_pod_];
  });

  const u64 pod_hbm_base =
      static_cast<u64>(pod_idx) * hbm_pages_per_pod_ * cfg_.page_bytes;
  const u64 pod_dram_base =
      static_cast<u64>(pod_idx) * dram_pages_per_pod_ * cfg_.page_bytes;

  const std::size_t n = std::min<std::size_t>(cands.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    const u32 hot_page = static_cast<u32>(cands[i].page);
    const u32 cold_frame = frames[i];
    // Only displace strictly colder residents.
    if (hbm_access[cold_frame - dram_pages_per_pod_] >= cands[i].count) {
      break;
    }
    const u32 hot_frame = frame_of(pod_idx, hot_page);
    const u32 cold_page = page_at(pod_idx, cold_frame);

    swap_data(hbm(),
              pod_hbm_base + static_cast<u64>(cold_frame -
                                              dram_pages_per_pod_) *
                                 cfg_.page_bytes,
              dram(),
              pod_dram_base + static_cast<u64>(hot_frame) * cfg_.page_bytes,
              cfg_.page_bytes, now, mem::TrafficClass::kMigration);

    map(pod_idx, hot_page, cold_frame);
    map(pod_idx, cold_page, hot_frame);
    if (tracing()) {
      trace()->emit(TraceEvent(now, "page_swap", "mempod")
                        .arg("pod", pod_idx)
                        .arg("hot_page", hot_page)
                        .arg("cold_page", cold_page)
                        .arg("bytes", cfg_.page_bytes));
    }
    ++interval_migrations_;
    ++mutable_stats().swaps;
    mutable_stats().blocks_fetched += cfg_.page_bytes / 64;
    ++mutable_stats().fetched_blocks_used;
  }

  for (auto& e : mea(pod_idx)) e = MeaEntry{};
  for (auto& c : hbm_access) c = 0;
  next_interval_[pod_idx] = now + cfg_.interval;
}

hmm::HmmResult MemPodController::service(Addr addr, AccessType type,
                                         Tick now) {
  hmm::HmmResult res;
  const u64 pages_per_pod = hbm_pages_per_pod_ + dram_pages_per_pod_;
  const u64 visible =
      static_cast<u64>(cfg_.pods) * pages_per_pod * cfg_.page_bytes;
  const Addr a = addr % visible;
  const u64 gp = a / cfg_.page_bytes;
  const u32 pod_idx = static_cast<u32>(gp % cfg_.pods);
  const u64 page = gp / cfg_.pods;  // pod-local logical page
  const u64 off = a % cfg_.page_bytes;

  res.metadata_latency = cfg_.sram_latency;  // remap tables are SRAM here
  Tick t = now + cfg_.sram_latency;

  if (now >= next_interval_[pod_idx]) run_interval(pod_idx, now);

  const u32 frame = frame_of(pod_idx, page);
  if (frame >= dram_pages_per_pod_) {
    ++hbm_access(pod_idx)[frame - dram_pages_per_pod_];
    const Addr pa = static_cast<u64>(pod_idx) * hbm_pages_per_pod_ *
                        cfg_.page_bytes +
                    static_cast<u64>(frame - dram_pages_per_pod_) *
                        cfg_.page_bytes +
                    off;
    const auto r = hbm().access(pa, 64, type, t, mem::TrafficClass::kDemand);
    res.complete = r.complete;
    res.served_by_hbm = true;
    res.phys_addr = pa;
    return res;
  }

  mea_touch(pod_idx, page);
  const Addr pa = static_cast<u64>(pod_idx) * dram_pages_per_pod_ *
                      cfg_.page_bytes +
                  static_cast<u64>(frame) * cfg_.page_bytes + off;
  const auto r = dram().access(pa, 64, type, t, mem::TrafficClass::kDemand);
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = pa;
  return res;
}

}  // namespace bb::baselines
