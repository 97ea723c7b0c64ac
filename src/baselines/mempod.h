// MemPod — "A Clustered Architecture for Efficient and Scalable Migration
// in Flat Address Space Multi-Level Memories" (Prodromou et al., HPCA
// 2017). Reference [8] of the paper.
//
// Memory is partitioned into independent "Pods", each pairing a slice of
// HBM with a slice of off-chip DRAM. Migration is interval-based: during
// an interval, a Majority Element Algorithm (MEA) tracker per pod finds
// the hottest off-chip 2 KB pages; at the interval boundary the pod swaps
// them with its coldest HBM-resident pages. Intervals decouple migration
// bandwidth from the access stream — MemPod's scalability claim.
#pragma once

#include <span>

#include "common/zero_array.h"
#include "hmm/controller.h"

namespace bb::baselines {

struct MemPodConfig {
  u64 page_bytes = 2 * KiB;
  u32 pods = 16;
  u32 mea_counters = 64;          ///< MEA tracker entries per pod
  Tick interval = ns_to_ticks(50'000.0);  ///< migration interval (50 us)
  Tick sram_latency = ns_to_ticks(2.0);
};

class MemPodController final : public hmm::HybridMemoryController {
 public:
  MemPodController(mem::DramDevice& hbm, mem::DramDevice& dram,
                   hmm::PagingConfig paging = {},
                   const MemPodConfig& cfg = {});

  u64 metadata_sram_bytes() const override;

  u32 pod_count() const { return cfg_.pods; }
  u64 interval_migrations() const { return interval_migrations_; }

  /// True when, in every pod, the page-to-frame and frame-to-page maps are
  /// mutual inverses over the pod's pages. Debug and BB_CHECKS builds check
  /// a pod after every interval that had migration candidates.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

  /// Base reset plus the cumulative migration counter (it parallels
  /// stats().swaps, which the base reset clears).
  void reset_stats() override {
    HybridMemoryController::reset_stats();
    interval_migrations_ = 0;
  }

  /// One Majority Element Algorithm counter: an unpadded snapshot table
  /// element.
  struct MeaEntry {
    u64 page = 0;  ///< pod-local logical page index
    u32 count = 0;
    u32 pad = 0;
    bool well_formed() const { return pad == 0; }
  };

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:

  /// Index of pod-local page or frame `i` of `pod` in the remap tables.
  std::size_t slot(u32 pod, u64 i) const {
    return static_cast<std::size_t>(pod) *
               (hbm_pages_per_pod_ + dram_pages_per_pod_) +
           i;
  }
  /// Remap: pod-local logical page -> pod-local frame (DRAM frames first,
  /// then HBM frames), and its inverse.
  u32 frame_of(u32 pod, u64 page) const {
    return frame_xor_page_[slot(pod, page)] ^ static_cast<u32>(page);
  }
  u32 page_at(u32 pod, u32 frame) const {
    return page_xor_frame_[slot(pod, frame)] ^ frame;
  }
  void map(u32 pod, u32 page, u32 frame) {
    frame_xor_page_[slot(pod, page)] = frame ^ page;
    page_xor_frame_[slot(pod, frame)] = page ^ frame;
  }
  std::span<MeaEntry> mea(u32 pod) {
    return {mea_.data() + static_cast<std::size_t>(pod) * cfg_.mea_counters,
            cfg_.mea_counters};
  }
  /// Per-HBM-frame interval access counts of `pod`.
  std::span<u32> hbm_access(u32 pod) {
    return {hbm_access_.data() +
                static_cast<std::size_t>(pod) * hbm_pages_per_pod_,
            static_cast<std::size_t>(hbm_pages_per_pod_)};
  }

  bool pod_maps_are_inverse(u32 pod) const;
  void mea_touch(u32 pod, u64 page);
  void run_interval(u32 pod, Tick now);

  MemPodConfig cfg_;
  u64 hbm_pages_per_pod_;
  u64 dram_pages_per_pod_;
  Divisor visible_div_;  ///< bytes the pods cover
  Divisor page_div_;     ///< cfg_.page_bytes
  Divisor pods_div_;     ///< cfg_.pods
  // Every pod's state in flat tables sized once. The remap tables store
  // frame ^ page (and page ^ frame), so the zero bytes of a fresh table are
  // the identity mapping.
  ZeroArray<u32> frame_xor_page_;  ///< pods x pages per pod
  ZeroArray<u32> page_xor_frame_;  ///< pods x frames per pod
  ZeroArray<MeaEntry> mea_;        ///< pods x mea_counters
  ZeroArray<u32> hbm_access_;      ///< pods x HBM frames per pod
  ZeroArray<Tick> next_interval_;  ///< per pod
  u64 interval_migrations_ = 0;
};

}  // namespace bb::baselines
