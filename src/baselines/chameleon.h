// Chameleon (Kotra et al., MICRO 2018).
//
// A POM (part-of-memory) design: all HBM is OS-visible. Memory is divided
// into remapping sets ("segment groups") with exactly ONE HBM segment per
// set — the restriction the paper criticizes for uneven HBM utilization
// and frequent segment swaps. A hot off-chip segment whose access counter
// beats the current HBM occupant's swaps with it (full-segment traffic in
// both directions). The remapping table is too large for SRAM, so lookups
// go through an SRAM metadata cache backed by HBM (real MAL).
#pragma once

#include <cassert>
#include <vector>

#include "hmm/controller.h"
#include "hmm/metadata.h"

namespace bb::baselines {

struct ChameleonConfig {
  u64 segment_bytes = 2 * KiB;
  u32 swap_threshold = 4;  ///< challenger counter margin to trigger a swap
  u64 metadata_cache_bytes = 512 * KiB;
};

class ChameleonController final : public hmm::HybridMemoryController {
 public:
  ChameleonController(mem::DramDevice& hbm, mem::DramDevice& dram,
                      hmm::PagingConfig paging = {},
                      const ChameleonConfig& cfg = {});

  /// The full remapping table + counters, if SRAM-resident.
  u64 metadata_sram_bytes() const override;

  /// Base reset plus the metadata model's lookup/latency stats.
  void reset_stats() override {
    HybridMemoryController::reset_stats();
    meta_->reset_stats();
  }

  u32 set_count() const { return sets_; }
  u32 segments_per_set() const { return m_ + 1; }

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  /// Per-set state lives in flat arrays of m_+1 entries per set.
  std::size_t at(u32 set, u32 i) const {
    assert(set < sets_ && i <= m_);
    return static_cast<std::size_t>(set) * (m_ + 1) + i;
  }
  u8& seg_at_frame(u32 set, u32 frame) {
    return seg_at_frame_[at(set, frame)];
  }
  u8& counter(u32 set, u32 seg) { return counter_[at(set, seg)]; }

  ChameleonConfig cfg_;
  u32 sets_;  ///< one HBM segment per set
  u32 m_;     ///< off-chip segments per set
  /// Per set, the permutation of its m_+1 segments over its frames; frame
  /// m_ is the single HBM slot, frames [0, m_) are off-chip. Initially the
  /// identity (segment m_ is HBM-native).
  std::vector<u8> seg_at_frame_;
  std::vector<u8> counter_;  ///< per-segment saturating access counters
  std::unique_ptr<hmm::MetadataModel> meta_;
};

}  // namespace bb::baselines
