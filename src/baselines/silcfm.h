// SILC-FM — "Subblocked Interleaved Cache-Like Flat Memory Organization"
// (Ryoo et al., HPCA 2017). Reference [7] of the paper.
//
// A flat (OS-visible) organization that migrates at SUBBLOCK (64 B x N)
// granularity inside large blocks: a near-memory block can interleave
// subblocks from a far block with its own, tracked by a presence bit
// vector — cache-like hit behaviour without cache tags, and without
// moving whole large blocks. A far block whose access counter passes a
// threshold becomes the near block's "paired" block and its subblocks are
// swapped in on demand. The remapping/bitvector metadata exceeds SRAM and
// sits behind a metadata cache (the high remapping overhead the paper
// cites for mHBM designs).
#pragma once

#include "common/bitvector.h"
#include "common/zero_array.h"
#include "hmm/controller.h"
#include "hmm/metadata.h"

namespace bb::baselines {

struct SilcFmConfig {
  u64 block_bytes = 2 * KiB;     ///< large block (near slot granularity)
  u64 subblock_bytes = 64;       ///< migration granularity
  u32 pair_threshold = 4;        ///< counter to become the paired block
  u64 metadata_cache_bytes = 512 * KiB;
};

class SilcFmController final : public hmm::HybridMemoryController {
 public:
  SilcFmController(mem::DramDevice& hbm, mem::DramDevice& dram,
                   hmm::PagingConfig paging = {},
                   const SilcFmConfig& cfg = {});

  u64 metadata_sram_bytes() const override;

  /// Base reset plus the metadata model's lookup/latency stats.
  void reset_stats() override {
    HybridMemoryController::reset_stats();
    meta_->reset_stats();
  }

  u32 set_count() const { return sets_; }
  u32 blocks_per_set() const { return m_ + 1; }

  /// True when every set's paired block is a far block (in-set index
  /// below m_) and a set with no paired block has no present bits.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  static constexpr u32 kNone = ~u32{0};

  u32 subblocks() const {
    return static_cast<u32>(cfg_.block_bytes / cfg_.subblock_bytes);
  }
  /// The far block interleaved into `set`'s near slot, or kNone.
  u32 paired(u32 set) const { return paired_xor_none_[set] ^ kNone; }
  void set_paired(u32 set, u32 blk) { paired_xor_none_[set] = blk ^ kNone; }

  SilcFmConfig cfg_;
  u32 sets_;  ///< one near block per set
  u32 m_;     ///< far blocks per set
  Divisor visible_div_;  ///< bytes the sets cover
  Divisor block_div_;    ///< cfg_.block_bytes
  Divisor sub_div_;      ///< cfg_.subblock_bytes
  Divisor sets_div_;     ///< sets_
  Divisor far_div_;      ///< m_
  // Every set's state in flat tables sized once; all-zero bytes are the
  // initial state.
  ZeroArray<u32> paired_xor_none_;  ///< per set: paired block ^ kNone
  BitMatrix present_;  ///< per set: paired block's subblocks now near
  ZeroArray<u8> counter_;  ///< per set: m_+1 saturating block counters
  std::unique_ptr<hmm::MetadataModel> meta_;
};

}  // namespace bb::baselines
