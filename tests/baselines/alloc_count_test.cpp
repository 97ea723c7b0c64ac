// Construction cost of the set-associative baselines and of the Bumblebee
// family must not scale with HBM capacity in heap allocations: per-set and
// per-way state lives in a few flat arrays sized once, not in one small
// vector or bitmap per set. The baselines' tables come from ZeroArray, not
// operator new, so what they do request stays small whatever their size.
//
// This binary replaces the global operator new/delete with counting
// versions, so it is built on its own (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "baselines/factory.h"
#include "mem/dram_device.h"

namespace {
std::atomic<unsigned long long> g_allocations{0};
std::atomic<unsigned long long> g_bytes{0};
}  // namespace

// GCC pairs the inlined free() below with the operator new call sites and
// reports a mismatch; both sides are these malloc/free replacements.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace bb::baselines {
namespace {

struct Requested {
  unsigned long long allocations = 0;
  unsigned long long bytes = 0;
};

/// Heap allocations, and bytes, requested through operator new while
/// constructing (not destroying) `design` over an HBM of `hbm_bytes` and a
/// 1 GiB off-chip device.
Requested construction_requests(const std::string& design, u64 hbm_bytes) {
  mem::DramTimingParams hp = mem::DramTimingParams::hbm2_1gb();
  hp.capacity_bytes = hbm_bytes;
  mem::DramTimingParams dp = mem::DramTimingParams::ddr4_3200_10gb();
  dp.capacity_bytes = 1 * GiB;
  mem::DramDevice hbm(hp);
  mem::DramDevice dram(dp);
  const unsigned long long allocations = g_allocations.load();
  const unsigned long long bytes = g_bytes.load();
  auto controller = make_design(design, hbm, dram);
  return {g_allocations.load() - allocations, g_bytes.load() - bytes};
}

class ConstructionAllocations
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ConstructionAllocations, DoNotScaleWithHbmCapacity) {
  const unsigned long long small =
      construction_requests(GetParam(), 128 * MiB).allocations;
  const unsigned long long large =
      construction_requests(GetParam(), 1 * GiB).allocations;
  EXPECT_GT(small, 0u) << "the counting operator new is not in effect";
  EXPECT_EQ(small, large);
}

INSTANTIATE_TEST_SUITE_P(Designs, ConstructionAllocations,
                         ::testing::Values("Banshee", "UC", "Chameleon",
                                           "Hybrid2", "Bumblebee", "No-Multi",
                                           "25%-C", "AC", "PoM", "MemPod",
                                           "SILC-FM"));

class ConstructionHeapBytes : public ::testing::TestWithParam<const char*> {};

TEST_P(ConstructionHeapBytes, StayUnder64KiBAt1GiBHbm) {
  const Requested r = construction_requests(GetParam(), 1 * GiB);
  EXPECT_GT(r.allocations, 0u) << "the counting operator new is not in effect";
  EXPECT_LT(r.bytes, 64 * KiB);
}

INSTANTIATE_TEST_SUITE_P(Designs, ConstructionHeapBytes,
                         ::testing::Values("Banshee", "UC", "AC", "PoM",
                                           "MemPod", "SILC-FM"));

}  // namespace
}  // namespace bb::baselines
