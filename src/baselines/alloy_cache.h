// Alloy Cache (Qureshi & Loh, MICRO 2012).
//
// A direct-mapped, block-granularity (64 B) DRAM cache that streams Tag-
// And-Data (TAD) units: tag and data are alloyed into one 72 B burst, so a
// hit needs a single HBM access and there is no separate SRAM tag store.
// The HBM is invisible to the OS (pure cache). Misses pay the TAD probe
// before going off-chip — the metadata-in-HBM latency the paper's MAL
// analysis highlights.
#pragma once

#include "common/bitvector.h"
#include "common/zero_array.h"
#include "hmm/controller.h"

namespace bb::baselines {

struct AlloyConfig {
  u64 line_bytes = 64;
  u64 tad_bytes = 72;  ///< 64 B data + 8 B tag, streamed as one unit
};

class AlloyCacheController final : public hmm::HybridMemoryController {
 public:
  AlloyCacheController(mem::DramDevice& hbm, mem::DramDevice& dram,
                       hmm::PagingConfig paging = {},
                       const AlloyConfig& cfg = {});

  /// Tags live in HBM; the controller itself needs no SRAM metadata.
  u64 metadata_sram_bytes() const override { return 0; }

  u64 line_count() const { return lines_.value(); }

  /// True when every dirty slot is valid.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  AlloyConfig cfg_;
  Divisor line_bytes_;
  Divisor lines_;            ///< direct-mapped TAD slots
  ZeroArray<u8> tag_;  ///< tag per slot (small: footprint/HBM ratio)
  BitMatrix valid_;    ///< one row: a bit per slot
  BitMatrix dirty_;    ///< one row: a bit per slot
};

}  // namespace bb::baselines
