// Epoch time-series sampling: a MetricRegistry of named probes and an
// EpochSampler that snapshots them every N requests or M simulated ticks,
// producing one row per epoch.
//
// All epoch boundaries are keyed to simulated ticks and request counts —
// never wall clock — so sampled output is byte-identical across reruns and
// across --jobs values (the experiment runner commits per-run rows in
// matrix order). Probes read live statistics objects; counter-kind metrics
// report per-epoch deltas so each row describes that epoch's activity, not
// the cumulative history.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb {

/// How an epoch row derives its value from the probe snapshots.
enum class MetricKind : u8 {
  kCounter,  ///< monotonic cumulative probe; the row reports the epoch delta
  kGauge,    ///< instantaneous probe; the row reports the end-of-epoch value
  kRatio,    ///< delta(numerator) / delta(denominator) over the epoch
};

/// Named metric probes, registered in a fixed (deterministic) order that
/// becomes the epoch CSV column order.
class MetricRegistry {
 public:
  using Probe = std::function<double()>;

  void add_counter(std::string name, Probe probe);
  void add_gauge(std::string name, Probe probe);
  /// Per-epoch ratio of two cumulative quantities (0 when the denominator
  /// did not advance), e.g. hbm_served / requests -> epoch serve rate.
  void add_ratio(std::string name, Probe numerator, Probe denominator);

  std::size_t size() const { return metrics_.size(); }
  const std::string& name(std::size_t i) const { return metrics_[i].name; }
  MetricKind kind(std::size_t i) const { return metrics_[i].kind; }
  std::vector<std::string> names() const;

 private:
  friend class EpochSampler;
  struct Metric {
    std::string name;
    MetricKind kind;
    Probe probe;
    Probe denom;  ///< kRatio only
  };
  std::vector<Metric> metrics_;
};

/// One closed epoch: [start_tick, end_tick], `requests` demand requests,
/// and one value per registered metric (column order = registry order).
struct EpochRow {
  u64 epoch = 0;
  Tick start_tick = 0;
  Tick end_tick = 0;
  u64 requests = 0;
  std::vector<double> values;
};

struct EpochConfig {
  /// Close an epoch every N demand requests (0 = not request-driven).
  u64 every_requests = 0;
  /// Close an epoch when the request tick moves past start + N (0 = not
  /// tick-driven). Both triggers may be combined; whichever fires first
  /// closes the epoch.
  Tick every_ticks = 0;

  bool enabled() const { return every_requests > 0 || every_ticks > 0; }
};

class EpochSampler {
 public:
  EpochSampler(EpochConfig cfg, MetricRegistry registry);

  /// Per-request hook: counts the request at simulated tick `now` and
  /// closes the current epoch if a boundary was crossed.
  void on_request(Tick now);

  /// Warmup boundary: discards warmup-phase rows and re-baselines every
  /// probe, so epoch 0 of the measured phase starts exactly at the stats
  /// reset tick (BB_CHECKed when the first measured epoch closes).
  void restart(Tick now);

  /// Closes the final partial epoch, if it saw any requests.
  void finish();

  const std::vector<EpochRow>& rows() const { return rows_; }
  const MetricRegistry& registry() const { return registry_; }

  /// Snapshot/restore of the epoch cursor and accumulated rows. The
  /// registry itself (probe closures) is rebuilt by the restoring run —
  /// registration order is deterministic, so the restored baseline slots
  /// line up; a restore fails closed when the column count disagrees.
  void serialize(snap::Archive& ar);

 private:
  void snapshot(std::vector<double>& out) const;
  void close_epoch(Tick now);

  EpochConfig cfg_;
  MetricRegistry registry_;
  std::vector<EpochRow> rows_;
  std::vector<double> baseline_;   ///< probe values at epoch start
  u64 next_epoch_ = 0;
  Tick epoch_start_tick_ = 0;
  Tick last_tick_ = 0;
  u64 requests_in_epoch_ = 0;
  Tick measured_start_tick_ = 0;
  bool measured_start_known_ = false;
};

/// Writes epoch rows as CSV. `columns` names the metric columns (registry
/// order); `prefix_headers`/`prefix_values` prepend per-run key columns
/// (e.g. design, workload). Values for metric columns a row lacks are left
/// empty. Emits the header only when `with_header` is true.
void write_epoch_csv_header(std::ostream& os,
                            const std::vector<std::string>& prefix_headers,
                            const std::vector<std::string>& columns);
void write_epoch_csv_rows(std::ostream& os,
                          const std::vector<std::string>& prefix_values,
                          const std::vector<std::string>& row_columns,
                          const std::vector<std::string>& columns,
                          const std::vector<EpochRow>& rows);

}  // namespace bb
