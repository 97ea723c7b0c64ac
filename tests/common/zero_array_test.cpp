#include "common/zero_array.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/types.h"

namespace bb {
namespace {

struct Line {
  u32 tag = 0;
  bool valid = false;
  u64 lru = 0;
};

TEST(ZeroArray, StartsZeroAndKeepsWrites) {
  // Below and above the 2 MiB huge-page threshold.
  for (std::size_t n : {std::size_t{1}, std::size_t{4096},
                        std::size_t{3} << 20}) {
    ZeroArray<u8> a(n);
    ASSERT_EQ(a.size(), n);
    for (std::size_t i = 0; i < n; i += 4093) EXPECT_EQ(a[i], 0u);
    EXPECT_EQ(a[n - 1], 0u);
    a[0] = 9;
    a[n - 1] = 7;
    EXPECT_EQ(a[n - 1], 7u);
    EXPECT_EQ(a[0], n == 1 ? 7u : 9u);
  }
}

TEST(ZeroArray, ZeroBytesReadAsDefaultStructs) {
  ZeroArray<Line> lines(1 << 18);
  const Line& l = lines[12345];
  EXPECT_EQ(l.tag, 0u);
  EXPECT_FALSE(l.valid);
  EXPECT_EQ(l.lru, 0u);
}

TEST(ZeroArray, MoveTransfersTheMapping) {
  ZeroArray<u32> a(1000);
  a[10] = 42;
  ZeroArray<u32> b(std::move(a));
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b[10], 42u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  ZeroArray<u32> c;
  EXPECT_EQ(c.size(), 0u);
  c = std::move(b);
  EXPECT_EQ(c[10], 42u);
}

constexpr std::size_t kHugePage = std::size_t{2} << 20;

TEST(ZeroArray, BothBackingsReadZeroKeepWritesAndMove) {
  // Just under the 2 MiB line (heap) and at it (huge zero pages).
  for (std::size_t bytes : {kHugePage - 8, kHugePage}) {
    const std::size_t n = bytes / sizeof(u64);
    ZeroArray<u64> a(n);
    ASSERT_EQ(a.size(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], 0u) << i;
    for (std::size_t i = 0; i < n; i += 511) a[i] = i + 1;
    a[n - 1] = 77;
    ZeroArray<u64> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
    ZeroArray<u64> c(1);
    c = std::move(b);
    ASSERT_EQ(c.size(), n);
    for (std::size_t i = 0; i < n - 1; ++i) {
      ASSERT_EQ(c[i], i % 511 == 0 ? i + 1 : 0u) << i;
    }
    EXPECT_EQ(c[n - 1], 77u);
  }
}

TEST(ZeroArray, SmallArrayRecreatedAfterWritesReadsZero) {
  // A heap-backed table freed dirty and re-created at the same size (as
  // the next cell of a matrix does) must not see the old contents.
  constexpr std::size_t kN = 64 * 1024;
  for (int round = 0; round < 3; ++round) {
    ZeroArray<u32> a(kN);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(a[i], 0u) << round;
    for (std::size_t i = 0; i < kN; ++i) a[i] = 0xdeadbeef;
  }
}

TEST(ZeroArray, OversizedRequestThrowsAndAllocatesNothing) {
  // SIZE_MAX / 8 + 2 elements of 8 bytes wrap to an 8-byte request if the
  // multiplication is not checked.
  const std::size_t n = SIZE_MAX / sizeof(u64) + 2;
  auto rejects = [](auto make) {
    try {
      make();
    } catch (const std::length_error&) {
      return true;
    }
    return false;
  };
  // The first throw sets up the unwinder's own caches; keep them out of
  // the measurement.
  rejects([] { throw std::length_error("warm-up"); });
  const struct mallinfo2 before = mallinfo2();
  const bool wrapped = rejects([n] { ZeroArray<u64> a(n); });
  const bool exact = rejects(
      [] { ZeroArray<Line> a(SIZE_MAX / sizeof(Line) + 1); });
  const struct mallinfo2 after = mallinfo2();
  EXPECT_TRUE(wrapped);
  EXPECT_TRUE(exact);
  // Nothing is left allocated on the heap or in mapped blocks.
  EXPECT_EQ(after.uordblks, before.uordblks);
  EXPECT_EQ(after.hblkhd, before.hblkhd);
  // The largest count that fits still reaches the allocator, which
  // refuses it.
  EXPECT_THROW(ZeroArray<u64>{SIZE_MAX / sizeof(u64)}, std::bad_alloc);
}

}  // namespace
}  // namespace bb
