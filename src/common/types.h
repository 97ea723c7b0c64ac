// Fundamental scalar types and unit helpers shared by every module.
//
// The simulation time base is the "tick": one tick is one picosecond, so
// both HBM2-class and DDR4-3200 clock periods (Table I of the paper) are
// exactly representable as integers.
#pragma once

#include <cstdint>
#include <limits>

namespace bb {

/// Simulation time in picoseconds.
using Tick = std::uint64_t;

/// Fractional nanoseconds, for exported latencies and timing parameters.
/// Semantically distinct from Tick: the tick-narrowing analysis rule
/// (tools/bb_analyze) flags arithmetic that narrows either; declaring a
/// quantity as Ns documents the unit at the interface instead of forcing a
/// cast at every use site.
using Ns = double;

/// Physical (or OS-visible flat) byte address.
using Addr = std::uint64_t;

/// Instruction counts, sizes, and other wide unsigned quantities.
using u64 = std::uint64_t;
using u32 = std::uint32_t;
using u16 = std::uint16_t;
using u8 = std::uint8_t;
using i64 = std::int64_t;

inline constexpr Tick kTickInvalid = std::numeric_limits<Tick>::max();
inline constexpr Addr kAddrInvalid = std::numeric_limits<Addr>::max();

inline constexpr u64 KiB = 1024;
inline constexpr u64 MiB = 1024 * KiB;
inline constexpr u64 GiB = 1024 * MiB;

/// Ticks per nanosecond (the tick is one picosecond).
inline constexpr Tick kTicksPerNs = 1000;

/// Converts nanoseconds (possibly fractional) to ticks, rounding to nearest.
constexpr Tick ns_to_ticks(Ns ns) {
  return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

/// Converts ticks to (fractional) nanoseconds.
constexpr Ns ticks_to_ns(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

/// Converts ticks to seconds.
constexpr double ticks_to_s(Tick t) { return static_cast<double>(t) * 1e-12; }

/// True iff `x` is a non-zero power of two.
constexpr bool is_pow2(u64 x) { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)) for x > 0.
constexpr u32 log2_floor(u64 x) {
  u32 r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)) for x > 0: number of bits needed to index x distinct values.
constexpr u32 bits_for(u64 distinct_values) {
  if (distinct_values <= 1) return 0;
  return log2_floor(distinct_values - 1) + 1;
}

/// ceil(a / b) for b > 0.
constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

/// Exact `/` and `%` by a non-zero divisor fixed at construction, for the
/// per-request address arithmetic: a shift and a mask when the divisor is a
/// power of two (every default geometry), hardware division otherwise.
/// Results equal `x / d` and `x % d` for every x and every d > 0.
class Divisor {
 public:
  /// Divisor 1 (every quotient is x, every remainder 0).
  constexpr Divisor() = default;
  /// `d` must be non-zero; callers validate their geometry first.
  explicit constexpr Divisor(u64 d)
      : d_(d), pow2_(is_pow2(d)), shift_(is_pow2(d) ? log2_floor(d) : 0) {}

  constexpr u64 value() const { return d_; }
  constexpr u64 div(u64 x) const { return pow2_ ? x >> shift_ : x / d_; }
  constexpr u64 mod(u64 x) const { return pow2_ ? x & (d_ - 1) : x % d_; }
  /// `x % d` for an x that is usually already below d: skips the division
  /// then (an address already inside a device's capacity, say).
  constexpr u64 wrap(u64 x) const { return x < d_ ? x : mod(x); }

 private:
  u64 d_ = 1;
  bool pow2_ = true;
  u32 shift_ = 0;
};

/// Read/write direction of a memory request.
enum class AccessType : u8 { kRead, kWrite };

constexpr const char* to_string(AccessType t) {
  return t == AccessType::kRead ? "read" : "write";
}

}  // namespace bb
