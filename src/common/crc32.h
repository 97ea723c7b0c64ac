// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320), shared by the
// streaming trace layer (per-chunk and stream checksums) and the snapshot
// container (payload integrity). One implementation, so the two formats can
// never drift apart on checksum semantics.
//
// Slice-by-8: eight 256-entry tables, built once, fold eight input bytes per
// step; table k maps a byte to its CRC contribution k bytes further back.
// The values are those of the classic byte-at-a-time loop (table 0 alone).
#pragma once

#include <array>
#include <cstddef>

#include "common/types.h"

namespace bb {

inline const std::array<std::array<u32, 256>, 8>& crc32_tables() {
  static const std::array<std::array<u32, 256>, 8> tables = [] {
    std::array<std::array<u32, 256>, 8> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (u32 i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

inline constexpr u32 crc32_init() { return 0xFFFFFFFFu; }

inline u32 crc32_update(u32 state, const u8* data, std::size_t n) {
  const auto& t = crc32_tables();
  for (; n >= 8; n -= 8, data += 8) {
    // Bytes are assembled explicitly, so the fold is endian-independent.
    const u32 lo = state ^ (static_cast<u32>(data[0]) |
                            static_cast<u32>(data[1]) << 8 |
                            static_cast<u32>(data[2]) << 16 |
                            static_cast<u32>(data[3]) << 24);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
            t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; n > 0; --n, ++data) {
    state = t[0][(state ^ *data) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

inline constexpr u32 crc32_final(u32 state) { return state ^ 0xFFFFFFFFu; }

inline u32 crc32_of(const u8* data, std::size_t n) {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace bb
