// The Bumblebee hybrid memory controller (Sections III-A .. III-E).
//
// Implements the full memory access flow of Figure 5, the hotness-based
// page allocation of Section III-D, and both classes of data movement of
// Section III-E:
//
//   Triggered by memory access:
//     (1) off-chip page access: migrate to mHBM (SL > 0) or cache the block
//         in cHBM (SL <= 0), gated by the hotness threshold T when Rh is
//         high;
//     (2) cHBM page access: fetch missing blocks; when most blocks are
//         cached, switch the frame to mHBM, fetching only the blocks not
//         already cached (the multiplexed-space benefit);
//     (3) mHBM accesses move nothing.
//
//   Triggered by high memory footprint:
//     (1) pages popped from the hot-table HBM queue are evicted;
//     (2) mHBM pages selected for eviction are first switched to cHBM with
//         all blocks dirty — a free "one more chance" buffer;
//     (3) zombie pages (stuck hot-queue head) are evicted;
//     (4) when a set's memory is fully OS-occupied, hot off-chip pages swap
//         with the set's coldest HBM page;
//     (5) when the OS footprint exceeds the off-chip capacity, cHBM pages
//         are flushed in batches of sets and those sets stop caching.
//
// Every Figure 7 ablation is a BumblebeeConfig preset over this one class.
#pragma once

#include <memory>

#include "bumblebee/config.h"
#include "bumblebee/set_state.h"
#include "hmm/controller.h"
#include "hmm/metadata.h"

namespace bb::bumblebee {

/// Bumblebee-specific statistics beyond the shared HmmStats.
struct BumblebeeStats {
  u64 prt_misses = 0;          ///< first-touch allocations
  u64 block_fetches = 0;       ///< single-block cHBM fills
  u64 page_migrations = 0;     ///< DRAM -> mHBM
  u64 cache_to_mem_switches = 0;
  u64 mem_to_cache_buffers = 0;  ///< eviction buffering (trigger 2)
  u64 zombie_evictions = 0;
  u64 set_swaps = 0;             ///< full-page swaps (trigger 4)
  u64 batch_flushes = 0;         ///< sets flushed by trigger 5
  u64 os_swap_outs = 0;          ///< allocation fallback: page pushed out
  u64 chbm_evictions = 0;
  u64 mhbm_evictions = 0;

  // Fault handling (zero in fault-free runs).
  u64 frame_retirements = 0;  ///< HBM frames mapped out after UEs
  u64 due_refetches = 0;      ///< clean cHBM DUEs re-served from off-chip
  u64 sets_degraded = 0;      ///< sets past the retirement threshold
};

class BumblebeeController final : public hmm::HybridMemoryController {
 public:
  BumblebeeController(const BumblebeeConfig& cfg, mem::DramDevice& hbm,
                      mem::DramDevice& dram, hmm::PagingConfig paging = {});

  u64 metadata_sram_bytes() const override;

  const BumblebeeConfig& config() const { return cfg_; }
  const Geometry& geometry() const { return geo_; }
  const BumblebeeStats& bb_stats() const { return bstats_; }
  const hmm::MetadataModel& metadata() const { return *meta_; }

  /// Current global cHBM / mHBM frame counts — the adjustable ratio the
  /// paper's title refers to; harnesses sample this over time.
  struct RatioSample {
    u64 chbm_frames = 0;
    u64 mhbm_frames = 0;
    u64 free_frames = 0;
  };
  RatioSample ratio() const;

  /// Validates every structural invariant of every set; returns false on
  /// violation. Used by property tests. The same per-set sweep also runs
  /// automatically (via BB_CHECK) after every remap-ratio transition in
  /// debug / BB_CHECKS builds — see check_set_invariants.
  bool check_invariants() const;

  /// Where a demand access to `addr` would be served *right now* (no state
  /// change); exposed for functional shadow tests.
  struct Location {
    bool in_hbm = false;
    Addr phys = kAddrInvalid;
    bool allocated = false;
  };
  Location locate(Addr addr) const;

  /// Base metrics plus the remap-ratio / hot-table time series (global
  /// cHBM/mHBM/free frame counts, per-set cHBM share mean/min/max, movement
  /// counters, sets with caching disabled).
  void register_metrics(MetricRegistry& reg) const override;

  /// Frames retired / sets degraded by fault handling (see FaultPosture).
  hmm::FaultPosture fault_posture() const override;

  /// Base reset plus the Bumblebee movement counters and the metadata
  /// model's stats. The remap state itself (PRT/BLE/hot tables, retired
  /// frames) survives: it is state, not statistics.
  void reset_stats() override;

  /// Full-state snapshot: framework base state, every set's PRT/BLE/hot
  /// table, the Bumblebee counters, footprint posture, and the metadata
  /// model. Geometry is construction-time shape; a restore fails closed
  /// on a set- or frame-count mismatch or a set that breaks its
  /// invariants.
  void serialize(snap::Archive& ar) override;

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  // ---- address helpers -------------------------------------------------
  struct Decoded {
    u32 set;
    u32 page;      ///< in-set logical page index (original PLE)
    u32 block;     ///< block index within the page
    u64 offset;    ///< byte offset within the page
  };
  Decoded decode(Addr addr) const;

  /// Device-local byte address of frame `slot` in `set`.
  Addr frame_addr(u32 set, u32 slot) const;
  bool slot_in_hbm(u32 slot) const { return slot >= geo_.m; }

  // ---- policy steps ----------------------------------------------------
  void allocate(SetState& st, u32 set, u32 page, Tick now);

  /// Frees one HBM frame via the hot-table eviction path (with mHBM->cHBM
  /// buffering when enabled). Under a fixed partition, `want_cache_role`
  /// selects a victim among frames of the needed role. Returns the freed
  /// BLE index or kNoPage.
  enum class FrameRole : u8 { kAny, kCache, kMem };
  u32 reclaim_hbm_frame(SetState& st, u32 set, Tick now,
                        FrameRole role = FrameRole::kAny);

  /// Evicts the page in BLE `k` (cache copy: write back dirty blocks;
  /// mHBM page: full writeback + PRT remap to a DRAM frame). Returns true
  /// on success (mHBM eviction needs a free DRAM frame).
  bool evict_frame(SetState& st, u32 set, u32 k, Tick now);

  void migrate_page(SetState& st, u32 set, u32 page, u32 target_ble, u32 block,
                    Tick now);

  /// Rule (1) applied to a page that already has a cHBM copy: a cached
  /// page is still an off-chip page, so under strong spatial locality and
  /// sufficient hotness it is promoted to mHBM (the switch fetches only
  /// the blocks not already cached).
  void maybe_promote_cached(SetState& st, u32 set, u32 ck, u64 hotness,
                            Tick now);
  void cache_block(SetState& st, u32 set, u32 page, u32 block, Tick now,
                   bool mark_dirty);
  /// Retires HBM frame `k` after an uncorrectable error: evicts its page
  /// through the normal path first (flush-if-dirty), marks the BLE sticky
  /// retired, and degrades the whole set once
  /// cfg_.degrade_after_retired_frames frames are gone. Returns false if
  /// the frame could not be vacated yet (no free DRAM frame) — the next UE
  /// retries. Re-verifies the set invariants on every retirement.
  bool retire_hbm_frame(SetState& st, u32 set, u32 k, Tick now);

  void switch_cache_to_mem(SetState& st, u32 set, u32 k, Tick now);
  void swap_with_coldest(SetState& st, u32 set, u32 page, Tick now);
  void flush_set_chbm(SetState& st, u32 set, Tick now);
  void run_zombie_check(SetState& st, u32 set, Tick now);
  void maybe_batch_flush(Tick now);

  /// cHBM frame roles under a fixed partition; kNoPage = unrestricted.
  bool frame_may_cache(u32 k) const;
  bool frame_may_mem(u32 k) const;

  Tick meta_lookup(u32 set, Tick now, hmm::HmmResult& res);
  void meta_update(u32 set, Tick now);

  /// One set's PRT <-> BLE <-> hot-table consistency sweep: PRT remaps are
  /// a bijection onto occupied frames, every BLE agrees with the PRT slot
  /// it mirrors, cached pages live off-chip, and the hot table's HBM queue
  /// holds exactly the HBM-resident pages (so the cHBM:mHBM ratio
  /// bookkeeping sums to the set's HBM frame count).
  bool check_set_invariants(const SetState& st, u32 set) const;

  /// BB_CHECK hook: asserts check_set_invariants after a remap-ratio
  /// transition (`where` names the transition in the failure message).
  /// Compiles to nothing when checking is disabled.
  void verify_set(const SetState& st, u32 set, const char* where) const;

  /// One set's cHBM/mHBM/free frame counts (same fields as the global
  /// RatioSample).
  RatioSample set_ratio(const SetState& st) const;

  /// Emits a remap_ratio_transition trace event for `set` if its frame-mode
  /// counts changed relative to `before` (no-op when tracing is off —
  /// callers snapshot `before` only under tracing()).
  void emit_ratio_transition(const SetState& st, u32 set, Tick now,
                             const char* trigger, const RatioSample& before);

  BumblebeeConfig cfg_;
  Geometry geo_;
  // decode()'s divisors, derived once from geo_.
  Divisor visible_div_;  ///< geo_.visible_bytes()
  Divisor page_div_;     ///< geo_.page_bytes
  Divisor block_div_;    ///< geo_.block_bytes
  Divisor sets_div_;     ///< geo_.sets
  std::unique_ptr<hmm::MetadataModel> meta_;
  u64 counter_max_;
  SetTable sets_;
  BumblebeeStats bstats_;
  u32 chbm_reserved_ = 0;  ///< fixed partition: BLEs [0, chbm_reserved_) cache
  bool fixed_partition_ = false;
  bool high_footprint_mode_ = false;
  u32 flush_cursor_ = 0;
};

}  // namespace bb::bumblebee
