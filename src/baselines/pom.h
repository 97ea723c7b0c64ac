// PoM — "Transparent Hardware Management of Stacked DRAM as Part of
// Memory" (Sim et al., MICRO 2014). Reference [6] of the paper and the
// design Chameleon builds on.
//
// All HBM is OS-visible. Memory is managed in 2 KB "sectors" grouped into
// congruence sets; a competing-counter pair per set decides whether the
// currently-near sector should be swapped with a challenger: the counter
// increments on challenger accesses and decrements on occupant accesses,
// swapping when it crosses a threshold — a hysteresis that PoM introduced
// to economize swap bandwidth. The remapping table lives in memory with an
// SRAM cache in front (PoM's "SRT cache").
#pragma once

#include <cassert>

#include "common/zero_array.h"
#include "hmm/controller.h"
#include "hmm/metadata.h"

namespace bb::baselines {

struct PomConfig {
  u64 sector_bytes = 2 * KiB;
  u32 swap_threshold = 6;  ///< competing-counter crossing point
  u64 metadata_cache_bytes = 512 * KiB;
};

class PomController final : public hmm::HybridMemoryController {
 public:
  PomController(mem::DramDevice& hbm, mem::DramDevice& dram,
                hmm::PagingConfig paging = {}, const PomConfig& cfg = {});

  u64 metadata_sram_bytes() const override;

  /// Base reset plus the metadata model's lookup/latency stats.
  void reset_stats() override {
    HybridMemoryController::reset_stats();
    meta_->reset_stats();
  }

  u32 set_count() const { return sets_; }
  u32 sectors_per_set() const { return m_ + 1; }

  /// True when the sector-to-frame map of every set is a permutation of
  /// its m_+1 sectors. Debug and BB_CHECKS builds check a set after every
  /// swap in it.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

  /// Per-set competition state: an unpadded snapshot table element.
  struct SetEntry {
    i64 counter = 0;     ///< competing counter (challenger vs occupant)
    u32 challenger = 0;  ///< sector currently accumulating the counter
    u32 pad = 0;
    bool well_formed() const { return pad == 0; }
  };

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:

  /// The in-set sector held by `frame` of `set` (frame m_ is the HBM
  /// slot).
  u32 sector_at(u32 set, u32 frame) const {
    return static_cast<u32>(sec_xor_frame_[at(set, frame)] ^ frame);
  }
  void set_sector_at(u32 set, u32 frame, u32 sec) {
    sec_xor_frame_[at(set, frame)] = static_cast<u8>(sec ^ frame);
  }
  std::size_t at(u32 set, u32 frame) const {
    assert(set < sets_ && frame <= m_);
    return static_cast<std::size_t>(set) * (m_ + 1) + frame;
  }
  bool set_is_permutation(u32 set) const;

  PomConfig cfg_;
  u32 sets_;
  u32 m_;
  Divisor visible_div_;  ///< bytes the sets cover
  Divisor sec_div_;      ///< cfg_.sector_bytes
  Divisor group_div_;    ///< m_ + 1 sectors per set
  /// Per set, the permutation of its m_+1 sectors over its frames, m_+1
  /// entries a set, stored as sector ^ frame: the zero bytes of a fresh
  /// table are the identity.
  ZeroArray<u8> sec_xor_frame_;
  ZeroArray<SetEntry> entries_;  ///< per set; zero bytes: no challenger
  std::unique_ptr<hmm::MetadataModel> meta_;
};

}  // namespace bb::baselines
