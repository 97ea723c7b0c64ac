// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) pinned independently
// of the trace and snapshot formats that use it: the standard check value,
// a differential check against a bytewise reference at every alignment, and
// chained updates split at every point.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace bb {
namespace {

/// Byte-at-a-time table reference, written out independently of the
/// implementation under test.
u32 reference_crc32(const u8* data, std::size_t n) {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  u32 state = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    state = table[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

std::vector<u8> random_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> out(n);
  for (u8& b : out) b = static_cast<u8>(rng.next_u64());
  return out;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32_of(reinterpret_cast<const u8*>(check), std::strlen(check)),
            0xCBF43926u);
  EXPECT_EQ(crc32_of(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<u8> buf = random_bytes(300 + 8, 0xC3C3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const u8* p = buf.data() + offset;
      ASSERT_EQ(crc32_of(p, len), reference_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChainedUpdatesEqualOneShot) {
  const std::vector<u8> buf = random_bytes(64, 0x5EED);
  const u32 whole = crc32_of(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    u32 state = crc32_init();
    state = crc32_update(state, buf.data(), split);
    state = crc32_update(state, buf.data() + split, buf.size() - split);
    EXPECT_EQ(crc32_final(state), whole) << "split at " << split;
  }
}

}  // namespace
}  // namespace bb
