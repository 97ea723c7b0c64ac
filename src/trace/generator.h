// Deterministic synthetic LLC-miss stream generator.
//
// Each record models one LLC-miss memory request: an instruction gap since
// the previous miss (geometric with mean 1000/MPKI), a 64 B-aligned address
// within the workload footprint, and a read/write direction.
//
// Addresses come from a three-way mixture reflecting the profile's locality:
//   * scanner  — sequential sweep of the footprint (spatial locality),
//   * hot set  — Zipf-distributed revisits of scattered hot regions
//                (temporal locality); the *size* of a hot region encodes how
//                densely hot data fills a 64 KB page, which is exactly the
//                Figure 1 axis (wrf: sparse hot blocks; mcf: dense pages),
//   * cold     — uniform misses across the footprint.
//
// The generator is a pure function of (profile, seed): identical streams on
// every run and platform.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "trace/workload.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::trace {

/// One LLC-miss request.
struct TraceRecord {
  u64 inst_gap = 0;  ///< instructions retired since the previous miss
  Addr addr = 0;     ///< 64 B-aligned physical address
  AccessType type = AccessType::kRead;
};

/// Abstract producer of miss records. The synthetic generator, the
/// streaming trace reader and the shared-stream cursor all implement this,
/// so the core model can drive any of them interchangeably
/// (CoreModel::run_sources). Sources never run dry: the reader loops at
/// end-of-trace.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces the next miss record. Each source bills its own host time to
  /// bb::prof's trace-gen phase, one call per record returned.
  virtual TraceRecord next() = 0;

  /// Snapshot/restore of the read position; every source has one.
  virtual void serialize(snap::Archive& ar) = 0;
};

inline constexpr u64 kLineBytes = 64;

/// Hot sets are capped: SPEC's hot data concentrates well below the full
/// footprint (the reuse mass that makes a 1 GB HBM worthwhile — cf. the
/// paper's Figure 1 where even 10 GB-footprint workloads show dense reuse).
inline constexpr u64 kMaxHotSetBytes = 384 * MiB;

class TraceGenerator : public TraceSource {
 public:
  TraceGenerator(const WorkloadProfile& profile, u64 seed);

  /// Produces the next miss record (profiled; see TraceSource::next).
  TraceRecord next() override;

  /// next() without the profiler marker, for callers that bill a whole
  /// batch of records at once (SharedStream's chunk fill).
  TraceRecord draw();

  /// Convenience: materializes `n` records.
  std::vector<TraceRecord> take(u64 n);

  const WorkloadProfile& profile() const { return profile_; }

  /// Size of one hot region: 1 KB (sparse, weak spatial) .. 64 KB (a full
  /// Bumblebee page, strong spatial).
  u64 hot_region_bytes() const { return hot_region_bytes_; }
  u64 hot_region_count() const { return hot_regions_; }

  /// Snapshot/restore of the generator position (RNG state + scan and
  /// per-region cursors); everything else follows from (profile, seed),
  /// including the shared Zipf table. A restore fails closed on a cursor
  /// the generator could not have reached and then leaves the generator
  /// unchanged.
  void serialize(snap::Archive& ar) override;

 private:
  Addr hot_address();
  Addr scan_address();
  Addr cold_address();

  /// Scatters hot region `i` pseudo-randomly across the footprint.
  Addr region_base(u64 i) const;

  WorkloadProfile profile_;
  Rng rng_;
  u64 footprint_;          ///< bytes, 64 B aligned
  u64 hot_region_bytes_;
  u64 hot_regions_;
  ZipfSampler zipf_;
  // Per-record constants, derived once from the profile.
  u64 region_blocks_;       ///< 64 B blocks per hot region
  u64 arena_regions_;       ///< regions of the arena hot regions scatter in
  u64 arena_base_region_;   ///< first region of the arena
  u64 total_regions_;       ///< regions in the footprint
  bool unit_gap_;           ///< mean instruction gap <= 1: every gap is 1
  double gap_log1p_;        ///< log1p(-1 / mean instruction gap)
  double hot_or_scan_;      ///< w_hot + w_scan
  Addr scan_cursor_ = 0;
  std::vector<u16> hot_cursor_;  ///< per-region sequential block cursor
};

/// Measured characteristics of a generated stream — used by tests to verify
/// the generator reproduces Table II and the locality axes.
struct StreamStats {
  double mean_inst_gap = 0;      ///< -> MPKI
  double write_fraction = 0;
  u64 unique_pages_4k = 0;       ///< touched footprint at 4 KiB granularity
  double page64k_block_use = 0;  ///< mean fraction of 2 KB blocks used per
                                 ///< touched 64 KB page (spatial locality)
  double top1pct_share = 0;      ///< miss share of the hottest 1% of 4 KB
                                 ///< pages (temporal locality)
};

StreamStats measure_stream(const std::vector<TraceRecord>& recs);

}  // namespace bb::trace
