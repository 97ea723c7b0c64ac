#include "fault/fault.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "common/rng.h"
#include "common/snapshot.h"

namespace bb::fault {

namespace {

// Population salts: distinct hash domains so e.g. a dead bank and a stuck
// row never correlate through a shared prefix.
constexpr u64 kSaltChannel = 1;
constexpr u64 kSaltBank = 2;
constexpr u64 kSaltRow = 3;
constexpr u64 kSaltTransient = 4;
constexpr u64 kSaltSeverity = 5;
constexpr u64 kSaltHbm = 0x4842'4d00ULL;   // "HBM"
constexpr u64 kSaltDram = 0x4452'414dULL;  // "DRAM"

/// One SplitMix64 step folding `v` into the running hash `h`.
u64 mix(u64 h, u64 v) { return SplitMix64(h ^ v).next(); }

/// Uniform [0, 1) from a hash (same 53-bit mapping as Rng::next_double).
double unit(u64 h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

bool draw(u64 h, double p) { return p > 0.0 && unit(h) < p; }

u64 pack_row(u32 channel, u32 bank, u32 row) {
  return (static_cast<u64>(channel) << 48) | (static_cast<u64>(bank) << 32) |
         static_cast<u64>(row);
}

double parse_rate(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("bad fault rate: \"" + text + "\"");
  }
  return v;
}

u64 parse_seed(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const u64 v = std::strtoull(text.c_str(), &end, 10);
  // strtoull silently wraps negative input; a seed is a plain decimal.
  if (text.empty() || text[0] == '-' || text[0] == '+' ||
      end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("bad fault seed: \"" + text + "\"");
  }
  return v;
}

}  // namespace

const char* to_string(EccOutcome o) {
  switch (o) {
    case EccOutcome::kClean: return "clean";
    case EccOutcome::kCorrected: return "corrected";
    case EccOutcome::kUncorrectable: return "uncorrectable";
  }
  return "?";
}

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kStuckRow: return "stuck_row";
    case FaultKind::kDeadBank: return "dead_bank";
    case FaultKind::kDeadChannel: return "dead_channel";
  }
  return "?";
}

const std::vector<std::string>& FaultConfig::profile_names() {
  static const std::vector<std::string> kNames = {
      "none", "transient", "stuck-rows", "dead-bank", "mixed"};
  return kNames;
}

FaultConfig FaultConfig::profile(const std::string& name, double rate,
                                 u64 seed) {
  // NaN fails both comparisons below, so reject it alongside out-of-range.
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("fault rate must be in [0, 1]");
  }
  FaultConfig cfg;
  cfg.seed = seed;
  DeviceFaultRates r;
  if (name == "none") {
    // all rates stay zero
  } else if (name == "transient") {
    r.transient_per_access = rate;
  } else if (name == "stuck-rows") {
    r.stuck_row_fraction = rate;
  } else if (name == "dead-bank") {
    r.dead_bank_fraction = rate;
  } else if (name == "mixed") {
    r.transient_per_access = rate;
    r.stuck_row_fraction = std::min(1.0, 10.0 * rate);
    r.dead_bank_fraction = std::min(1.0, 100.0 * rate);
  } else {
    std::string known;
    for (const auto& n : profile_names()) known += " " + n;
    throw std::invalid_argument("unknown fault profile: \"" + name +
                                "\" (known:" + known + ")");
  }
  cfg.hbm = r;
  cfg.dram = r;
  return cfg;
}

FaultConfig FaultConfig::parse(const std::string& spec) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char ch : spec) {
    if (ch == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  parts.push_back(cur);
  if (spec.empty() || parts.size() > 3) {
    throw std::invalid_argument("bad fault spec: \"" + spec +
                                "\" (expected name[:rate[:seed]])");
  }
  const double rate = parts.size() >= 2 ? parse_rate(parts[1]) : 1e-4;
  const u64 seed = parts.size() >= 3 ? parse_seed(parts[2]) : 0;
  return profile(parts[0], rate, seed);
}

DeviceFaultState::DeviceFaultState(const FaultConfig& cfg, bool is_hbm,
                                   u64 run_seed)
    : cfg_(cfg), rates_(is_hbm ? cfg.hbm : cfg.dram) {
  seed_ = mix(mix(run_seed, cfg.seed), is_hbm ? kSaltHbm : kSaltDram);
}

FaultEvent DeviceFaultState::classify(u32 channel, u32 bank, u32 row,
                                      Tick now) {
  FaultEvent ev;
  if (!rates_.any()) return ev;

  // Structural failures first: they dominate whatever else the cell under
  // access might be doing.
  if (draw(mix(mix(seed_, kSaltChannel), channel),
           rates_.dead_channel_fraction)) {
    ev.outcome = EccOutcome::kUncorrectable;
    ev.kind = FaultKind::kDeadChannel;
    return ev;
  }
  if (draw(mix(mix(mix(seed_, kSaltBank), channel), bank),
           rates_.dead_bank_fraction)) {
    ev.outcome = EccOutcome::kUncorrectable;
    ev.kind = FaultKind::kDeadBank;
    return ev;
  }

  // Stuck-at rows raise a CE on every touch until retired; a retired row
  // is served by a spare and falls through to the transient check.
  const u64 row_hash = mix(mix(mix(mix(seed_, kSaltRow), channel), bank), row);
  if (draw(row_hash, rates_.stuck_row_fraction)) {
    RowHealth& health = rows_[pack_row(channel, bank, row)];
    if (!health.retired) {
      ++health.ces;
      if (health.ces >= cfg_.retire_row_after_ces) {
        health.retired = true;
        ++retired_rows_;
        ev.row_retired = true;
      }
      ev.outcome = EccOutcome::kCorrected;
      ev.kind = FaultKind::kStuckRow;
      return ev;
    }
  }

  // Transient upsets are keyed on the tick as well, so a backoff retry of
  // a DUE re-draws — which is exactly what makes bounded retry effective
  // against transients and useless against the structural faults above.
  const u64 t_hash =
      mix(mix(mix(mix(mix(seed_, kSaltTransient), channel), bank), row), now);
  if (draw(t_hash, rates_.transient_per_access)) {
    const bool due = draw(mix(t_hash, kSaltSeverity), cfg_.due_fraction);
    ev.outcome = due ? EccOutcome::kUncorrectable : EccOutcome::kCorrected;
    ev.kind = FaultKind::kTransient;
    return ev;
  }
  return ev;
}

void DeviceFaultState::serialize(snap::Archive& ar) {
  // The map goes through a flat copy in key order.
  std::vector<std::pair<u64, RowHealth>> rows(rows_.begin(), rows_.end());
  ar.count(rows);
  for (auto& [key, health] : rows) {
    ar.u64(key);
    ar.u32(health.ces);
    ar.flag(health.retired);
  }
  ar.u64(retired_rows_);
  if (ar.loading()) rows_ = {rows.begin(), rows.end()};
}

}  // namespace bb::fault
