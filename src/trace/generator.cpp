#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/prof.h"
#include "common/snapshot.h"

namespace bb::trace {
namespace {

u64 derive_hot_region_bytes(double spatial) {
  // spatial 0 -> 1 KB regions (hot blocks sparse within 64 KB pages),
  // spatial 1 -> 64 KB regions (entire pages hot).
  const int shift = static_cast<int>(spatial * 6.0 + 0.5);
  return u64{1} << (10 + std::clamp(shift, 0, 6));
}

}  // namespace

TraceGenerator::TraceGenerator(const WorkloadProfile& profile, u64 seed)
    : profile_(profile),
      rng_(seed),
      footprint_(std::max<u64>(profile.footprint_bytes() & ~(kLineBytes - 1),
                               64 * KiB)),
      hot_region_bytes_(derive_hot_region_bytes(profile.spatial)),
      hot_regions_(std::max<u64>(
          1, std::min<u64>(static_cast<u64>(profile.hot_fraction *
                                            static_cast<double>(footprint_)),
                           kMaxHotSetBytes) /
                 hot_region_bytes_)),
      zipf_(std::min<u64>(hot_regions_, 1u << 20), profile.zipf_s),
      region_blocks_(hot_region_bytes_ / kLineBytes),
      // Hot regions scatter within a bounded arena (a few times the hot-set
      // size), not across the whole footprint: programs keep hot structures
      // in specific allocation ranges, so the number of distinct pages
      // holding hot data stays bounded even for weak-spatial workloads.
      // Collisions merely merge two hot regions. The arena is offset away
      // from the scan's starting point.
      arena_regions_(std::min(footprint_,
                              8 * hot_regions_ * hot_region_bytes_) /
                     hot_region_bytes_),
      arena_base_region_((footprint_ / hot_region_bytes_) / 3),
      total_regions_(footprint_ / hot_region_bytes_),
      unit_gap_(profile.mean_inst_gap() <= 1.0),
      gap_log1p_(std::log1p(-1.0 / profile.mean_inst_gap())),
      hot_or_scan_(profile.w_hot + profile.w_scan) {
  hot_cursor_.assign(static_cast<std::size_t>(zipf_.n()), 0);
}

Addr TraceGenerator::region_base(u64 i) const {
  const u64 scattered = (i * 0x9e3779b97f4a7c15ULL) % arena_regions_;
  // arena_base_region_ + scattered < 4/3 of total_regions_: one subtract
  // wraps it.
  u64 region = arena_base_region_ + scattered;
  if (region >= total_regions_) region -= total_regions_;
  return region * hot_region_bytes_;
}

Addr TraceGenerator::hot_address() {
  const u64 region = zipf_.sample(rng_);
  const Addr base = region_base(region);
  u64 block;
  if (rng_.next_bool(profile_.spatial)) {
    // Sequential walk within the region.
    u16& cur = hot_cursor_[static_cast<std::size_t>(region)];
    block = cur;
    cur = static_cast<u16>(block + 1 == region_blocks_ ? 0 : block + 1);
  } else {
    block = rng_.next_below(region_blocks_);
  }
  return base + block * kLineBytes;
}

Addr TraceGenerator::scan_address() {
  const Addr a = scan_cursor_;
  scan_cursor_ += kLineBytes;
  if (scan_cursor_ >= footprint_) scan_cursor_ = 0;
  return a;
}

Addr TraceGenerator::cold_address() {
  return rng_.next_below(footprint_ / kLineBytes) * kLineBytes;
}

TraceRecord TraceGenerator::next() {
  prof::ScopedPhase phase(prof::Phase::kTraceGen);
  return draw();
}

TraceRecord TraceGenerator::draw() {
  TraceRecord rec;
  rec.inst_gap = unit_gap_ ? 1 : rng_.next_gap_log(gap_log1p_);
  const double u = rng_.next_double();
  if (u < profile_.w_hot) {
    rec.addr = hot_address();
  } else if (u < hot_or_scan_) {
    rec.addr = scan_address();
  } else {
    rec.addr = cold_address();
  }
  rec.type = rng_.next_bool(profile_.write_fraction) ? AccessType::kWrite
                                                     : AccessType::kRead;
  return rec;
}

std::vector<TraceRecord> TraceGenerator::take(u64 n) {
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (u64 i = 0; i < n; ++i) out.push_back(draw());
  return out;
}

StreamStats measure_stream(const std::vector<TraceRecord>& recs) {
  StreamStats s;
  if (recs.empty()) return s;

  double gap_sum = 0;
  u64 writes = 0;
  // Ordered maps: these are iterated into floating-point accumulations
  // below, and unordered iteration order would make the sums (and thus the
  // calibration stats) vary across standard-library implementations.
  std::map<Addr, u64> page4k_count;
  std::map<Addr, std::set<u64>> page64k_blocks;
  for (const auto& r : recs) {
    gap_sum += static_cast<double>(r.inst_gap);
    if (r.type == AccessType::kWrite) ++writes;
    ++page4k_count[r.addr / (4 * KiB)];
    page64k_blocks[r.addr / (64 * KiB)].insert((r.addr / (2 * KiB)) % 32);
  }
  s.mean_inst_gap = gap_sum / static_cast<double>(recs.size());
  s.write_fraction =
      static_cast<double>(writes) / static_cast<double>(recs.size());
  s.unique_pages_4k = page4k_count.size();

  double use_sum = 0;
  for (const auto& [_, blocks] : page64k_blocks) {
    use_sum += static_cast<double>(blocks.size()) / 32.0;
  }
  s.page64k_block_use =
      use_sum / static_cast<double>(page64k_blocks.size());

  std::vector<u64> counts;
  counts.reserve(page4k_count.size());
  for (const auto& [_, c] : page4k_count) counts.push_back(c);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const std::size_t top = std::max<std::size_t>(1, counts.size() / 100);
  u64 top_sum = 0;
  for (std::size_t i = 0; i < top; ++i) top_sum += counts[i];
  s.top1pct_share =
      static_cast<double>(top_sum) / static_cast<double>(recs.size());
  return s;
}

void TraceGenerator::serialize(snap::Archive& ar) {
  // Validate into copies so a rejected stream leaves the generator as it
  // was.
  std::array<u64, 4> st = rng_.state();
  for (u64& word : st) ar.u64(word);
  Addr scan = scan_cursor_;
  ar.u64(scan);
  if (scan >= footprint_ || scan % kLineBytes != 0) {
    throw snap::SnapshotError("scan cursor outside the footprint or unaligned");
  }
  ar.expect(hot_cursor_.size(), "hot-region cursor count");
  std::vector<u16> hot = hot_cursor_;
  for (u16& c : hot) {
    ar.u32(c);
    if (c >= region_blocks_) {
      throw snap::SnapshotError("hot-region cursor past the region's blocks");
    }
  }
  if (!ar.loading()) return;
  rng_.set_state(st);
  scan_cursor_ = scan;
  hot_cursor_ = std::move(hot);
}

}  // namespace bb::trace
