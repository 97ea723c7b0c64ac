#include "common/types.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace bb {
namespace {

TEST(Types, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(4097));
  EXPECT_TRUE(is_pow2(u64{1} << 63));
}

TEST(Types, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4), 2u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_floor((u64{1} << 40) + 5), 40u);
}

TEST(Types, BitsFor) {
  EXPECT_EQ(bits_for(0), 0u);
  EXPECT_EQ(bits_for(1), 0u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(88), 7u);   // the paper's m + n = 88 -> 7-bit PLE
  EXPECT_EQ(bits_for(128), 7u);
  EXPECT_EQ(bits_for(129), 8u);
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 8), 0u);
  EXPECT_EQ(ceil_div(1, 8), 1u);
  EXPECT_EQ(ceil_div(8, 8), 1u);
  EXPECT_EQ(ceil_div(9, 8), 2u);
}

TEST(Types, DivisorMatchesHardwareDivision) {
  // Power-of-two divisors take the shift/mask path, the rest `/` and `%`;
  // both must equal hardware division on every input, including the
  // extremes and inputs far past the divisor.
  const u64 divisors[] = {1,         2,         3,     6,          7,
                          64,        72,        1000,  1024,       1536,
                          u64{10} * GiB,        11 * GiB, u64{1} << 40,
                          (u64{1} << 40) + 1,   (u64{1} << 63) - 1,
                          u64{1} << 63,         ~u64{0}};
  Rng rng(2024);
  for (const u64 d : divisors) {
    SCOPED_TRACE(d);
    const Divisor div(d);
    EXPECT_EQ(div.value(), d);
    std::vector<u64> xs = {0, 1, d - 1, d, d + 1, 2 * d - 1, ~u64{0},
                           ~u64{0} - 1};
    for (int i = 0; i < 2000; ++i) {
      xs.push_back(rng.next_u64());
      xs.push_back(rng.next_u64() >> (rng.next_u64() % 64));
      xs.push_back(rng.next_below(d));  // already in range: wrap's fast path
    }
    for (const u64 x : xs) {
      ASSERT_EQ(div.div(x), x / d) << x;
      ASSERT_EQ(div.mod(x), x % d) << x;
      ASSERT_EQ(div.wrap(x), x % d) << x;
    }
  }
  // The default divisor is 1.
  EXPECT_EQ(Divisor().div(12345), 12345u);
  EXPECT_EQ(Divisor().mod(12345), 0u);
}

TEST(Types, TickConversions) {
  EXPECT_EQ(ns_to_ticks(1.0), 1000u);
  EXPECT_EQ(ns_to_ticks(0.625), 625u);
  EXPECT_DOUBLE_EQ(ticks_to_ns(1500), 1.5);
  EXPECT_DOUBLE_EQ(ticks_to_s(1'000'000'000'000ULL), 1.0);
}

TEST(Types, Units) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

TEST(Types, AccessTypeToString) {
  EXPECT_STREQ(to_string(AccessType::kRead), "read");
  EXPECT_STREQ(to_string(AccessType::kWrite), "write");
}

}  // namespace
}  // namespace bb
