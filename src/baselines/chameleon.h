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

#include "common/zero_array.h"
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

  /// The in-set segment held by `frame` of `set` (frame m_ is the HBM
  /// slot).
  u32 segment_at(u32 set, u32 frame) const {
    return static_cast<u32>(seg_xor_frame_[at(set, frame)] ^ frame);
  }

  /// True when the permutation of every set is a bijection over its
  /// frames. Debug and BB_CHECKS builds check a set after every swap in
  /// it.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  /// Per-set state lives in flat arrays of m_+1 entries per set.
  std::size_t at(u32 set, u32 i) const {
    assert(set < sets_ && i <= m_);
    return static_cast<std::size_t>(set) * (m_ + 1) + i;
  }
  void set_segment_at(u32 set, u32 frame, u32 seg) {
    seg_xor_frame_[at(set, frame)] = static_cast<u8>(seg ^ frame);
  }
  u8& counter(u32 set, u32 seg) { return counter_[at(set, seg)]; }
  bool set_is_permutation(u32 set) const;

  ChameleonConfig cfg_;
  u32 sets_;  ///< one HBM segment per set
  u32 m_;     ///< off-chip segments per set
  Divisor visible_div_;  ///< bytes the sets cover
  Divisor seg_div_;      ///< cfg_.segment_bytes
  Divisor group_div_;    ///< m_ + 1 segments per set
  /// Per set, the permutation of its m_+1 segments over its frames; frame
  /// m_ is the single HBM slot, frames [0, m_) are off-chip. Stored as
  /// segment ^ frame, so the zero pages a fresh table reads are the
  /// identity (segment m_ is HBM-native).
  ZeroArray<u8> seg_xor_frame_;
  ZeroArray<u8> counter_;  ///< per-segment saturating access counters
  std::unique_ptr<hmm::MetadataModel> meta_;
};

}  // namespace bb::baselines
