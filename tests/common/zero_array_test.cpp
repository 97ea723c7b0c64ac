#include "common/zero_array.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bb
