// Deterministic fault injection + SECDED ECC classification for the HBM
// and off-chip DRAM devices.
//
// Three fault populations are modeled, matching the reliability taxonomy
// of field DRAM studies (transient vs permanent, cell vs structural):
//
//   * transient bit flips — per-access Bernoulli draws keyed on the access
//     tick, so a retried access re-draws (and usually clears);
//   * stuck-at rows — a fixed, seed-derived subset of rows that raise a
//     correctable error on every touch until the row is retired to a spare
//     after `retire_row_after_ces` corrections;
//   * dead banks / dead channels — a fixed subset of banks or whole
//     channels whose every access raises a detected-uncorrectable error.
//
// The SECDED layer classifies each access as clean, corrected (CE: result
// delivered after `ce_latency` of scrub cost) or detected-uncorrectable
// (DUE: the controller must retry or re-fetch from a clean copy).
//
// Determinism: every fault decision is a pure hash of (derived seed,
// population salt, geometry coordinates [, tick]) through SplitMix64 —
// no generator state is consumed in access order, so classifications are
// identical no matter how a parallel matrix interleaves runs. The only
// mutable state is per-row CE counts for retirement, which are keyed on
// geometry coordinates and therefore order-independent too.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::fault {

/// SECDED classification of one access.
enum class EccOutcome : u8 {
  kClean,          ///< no error (or fault model disabled)
  kCorrected,      ///< single-bit error corrected; `ce_latency` added
  kUncorrectable,  ///< detected-uncorrectable; data unusable as delivered
};

const char* to_string(EccOutcome o);

/// Which fault population produced a non-clean outcome.
enum class FaultKind : u8 {
  kNone,
  kTransient,
  kStuckRow,
  kDeadBank,
  kDeadChannel,
};

const char* to_string(FaultKind k);

/// Result of classifying one access against the fault model.
struct FaultEvent {
  EccOutcome outcome = EccOutcome::kClean;
  FaultKind kind = FaultKind::kNone;
  /// This access's correction pushed the row over the retirement
  /// threshold; the row is mapped to a spare and serves clean hereafter.
  bool row_retired = false;
};

/// Per-device fault population sizes. Fractions are Bernoulli parameters
/// over the seed-derived hash of the structure's coordinates, so e.g.
/// `dead_bank_fraction = 0.01` marks ~1% of all banks dead for the whole
/// run.
struct DeviceFaultRates {
  double transient_per_access = 0.0;  ///< per-access transient probability
  double stuck_row_fraction = 0.0;    ///< fraction of rows stuck-at
  double dead_bank_fraction = 0.0;    ///< fraction of banks dead
  double dead_channel_fraction = 0.0; ///< fraction of channels dead

  bool any() const {
    return transient_per_access > 0.0 || stuck_row_fraction > 0.0 ||
           dead_bank_fraction > 0.0 || dead_channel_fraction > 0.0;
  }
};

/// Full fault-injection configuration: per-device rates plus the ECC /
/// recovery knobs shared by both devices.
struct FaultConfig {
  DeviceFaultRates hbm;
  DeviceFaultRates dram;

  /// Folded into the run seed when deriving the fault streams, so fault
  /// placement can be varied independently of the workload streams.
  u64 seed = 0;

  /// Fraction of transient errors that exceed SECDED's single-bit reach
  /// (multi-bit upsets) and classify as DUE instead of CE.
  double due_fraction = 0.05;

  /// Extra completion latency of a corrected access (read-modify-write
  /// scrub of the corrected word).
  Tick ce_latency = ns_to_ticks(20.0);

  /// Corrections a row absorbs before being retired to a spare.
  u32 retire_row_after_ces = 4;

  /// DUE recovery: retries the controller issues before declaring the
  /// access unrecoverable, and the initial (doubling) retry backoff.
  u32 max_due_retries = 2;
  Tick due_retry_backoff = ns_to_ticks(100.0);

  bool enabled() const { return hbm.any() || dram.any(); }

  /// Named rate profiles (the `bbsim --fault-profile` vocabulary):
  ///   none       — all rates zero
  ///   transient  — transient_per_access = rate
  ///   stuck-rows — stuck_row_fraction = rate
  ///   dead-bank  — dead_bank_fraction = rate
  ///   mixed      — transient = rate, stuck rows = 10x, dead banks = 100x
  ///                (clamped to 1), a field-like blend for sweeps
  /// Rates apply to both devices. Throws std::invalid_argument for an
  /// unknown name or a rate outside [0, 1].
  static FaultConfig profile(const std::string& name, double rate,
                             u64 seed = 0);

  /// Parses "name[:rate[:seed]]" (e.g. "mixed:1e-4:7"); rate defaults to
  /// 1e-4. Throws std::invalid_argument on malformed input — never
  /// crashes, whatever the bytes (fuzz-tested).
  static FaultConfig parse(const std::string& spec);

  static const std::vector<std::string>& profile_names();
};

/// Per-device fault state: classifies accesses and tracks row retirement.
/// One instance per device per run (worker-private in parallel matrices).
class DeviceFaultState {
 public:
  /// `is_hbm` selects the device's rate set and salts the fault stream so
  /// the two devices fail independently under one seed.
  DeviceFaultState(const FaultConfig& cfg, bool is_hbm, u64 run_seed);

  /// Classifies one access to (channel, bank, row) at tick `now`.
  FaultEvent classify(u32 channel, u32 bank, u32 row, Tick now);

  const FaultConfig& config() const { return cfg_; }
  const DeviceFaultRates& rates() const { return rates_; }
  u64 retired_rows() const { return retired_rows_; }

  /// Snapshot/restore of the mutable state (per-row CE counts and the
  /// retirement tally); configuration and the hash streams are stateless.
  void serialize(snap::Archive& ar);

 private:
  struct RowHealth {
    u32 ces = 0;
    bool retired = false;
  };

  FaultConfig cfg_;
  DeviceFaultRates rates_;
  u64 seed_ = 0;
  std::map<u64, RowHealth> rows_;  ///< keyed on packed (channel,bank,row)
  u64 retired_rows_ = 0;
};

}  // namespace bb::fault
