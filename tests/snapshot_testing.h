// Test helpers for restoring objects from crafted snapshot payloads: a
// payload with a valid container header and CRC gets past the container
// checks, so the layer under test is the one that must fail closed.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/crc32.h"
#include "common/snapshot.h"

namespace bb::snap::testing {

inline std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Writes `payload` to `path` inside a valid container (magic, format
/// version, payload size, payload CRC32), exactly as Writer::commit seals
/// its own payload.
inline void seal(const std::string& path, const std::string& payload) {
  std::string file = "BBSNAP01";
  const auto put_le = [&file](u64 v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      file.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_le(kFormatVersion, 4);
  put_le(payload.size(), 8);
  put_le(crc32_of(reinterpret_cast<const u8*>(payload.data()),
                  payload.size()),
         4);
  file += payload;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

/// Restores `obj` from a sealed `payload` in one serialize pass.
template <class T>
void restore(const std::string& payload, T& obj) {
  const std::string path = temp_path("crafted.bbsnap");
  seal(path, payload);
  Reader r(path);  // reads the whole file
  std::remove(path.c_str());
  Archive ar(r);
  obj.serialize(ar);
}

/// The payload `obj` saves.
template <class T>
std::string payload_of(T& obj) {
  Writer w;
  Archive ar(w);
  obj.serialize(ar);
  return w.payload();
}

/// The bytes Archive::table saves for `t`.
template <class T>
std::string table_bytes(ZeroArray<T>& t) {
  Writer w;
  Archive ar(w);
  ar.table(t, "table");
  return w.payload();
}

/// `payload` with the one occurrence of `from` replaced by `to`.
inline std::string replace_once(std::string payload, const std::string& from,
                                const std::string& to) {
  const std::size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(at, payload.rfind(from)) << "section is not unique";
  return payload.replace(at, from.size(), to);
}

}  // namespace bb::snap::testing
