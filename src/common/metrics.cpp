#include "common/metrics.h"

#include <ostream>

#include "common/check.h"
#include "common/json.h"
#include "common/snapshot.h"
#include "common/table.h"

namespace bb {

void MetricRegistry::add_counter(std::string name, Probe probe) {
  metrics_.push_back(
      {std::move(name), MetricKind::kCounter, std::move(probe), nullptr});
}

void MetricRegistry::add_gauge(std::string name, Probe probe) {
  metrics_.push_back(
      {std::move(name), MetricKind::kGauge, std::move(probe), nullptr});
}

void MetricRegistry::add_ratio(std::string name, Probe numerator,
                               Probe denominator) {
  metrics_.push_back({std::move(name), MetricKind::kRatio,
                      std::move(numerator), std::move(denominator)});
}

std::vector<std::string> MetricRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& m : metrics_) out.push_back(m.name);
  return out;
}

EpochSampler::EpochSampler(EpochConfig cfg, MetricRegistry registry)
    : cfg_(cfg), registry_(std::move(registry)) {
  snapshot(baseline_);
}

void EpochSampler::snapshot(std::vector<double>& out) const {
  // kRatio metrics occupy two baseline slots (numerator, denominator).
  out.clear();
  for (const auto& m : registry_.metrics_) {
    out.push_back(m.probe ? m.probe() : 0.0);
    if (m.kind == MetricKind::kRatio) {
      out.push_back(m.denom ? m.denom() : 0.0);
    }
  }
}

void EpochSampler::close_epoch(Tick now) {
  // The satellite invariant: the first measured epoch must start exactly
  // at the warmup stats-reset tick, so time-series consumers can align
  // runs on the measurement window.
  if (rows_.empty() && measured_start_known_) {
    BB_CHECK(epoch_start_tick_ == measured_start_tick_,
             "epoch 0 of the measured phase must start at the warmup reset "
             "tick");
  }
  std::vector<double> cur;
  snapshot(cur);

  EpochRow row;
  row.epoch = next_epoch_++;
  row.start_tick = epoch_start_tick_;
  row.end_tick = now;
  row.requests = requests_in_epoch_;
  row.values.reserve(registry_.size());
  std::size_t slot = 0;
  for (const auto& m : registry_.metrics_) {
    switch (m.kind) {
      case MetricKind::kCounter:
        row.values.push_back(cur[slot] - baseline_[slot]);
        ++slot;
        break;
      case MetricKind::kGauge:
        row.values.push_back(cur[slot]);
        ++slot;
        break;
      case MetricKind::kRatio: {
        const double dn = cur[slot] - baseline_[slot];
        const double dd = cur[slot + 1] - baseline_[slot + 1];
        row.values.push_back(dd != 0.0 ? dn / dd : 0.0);
        slot += 2;
        break;
      }
    }
  }
  rows_.push_back(std::move(row));

  baseline_ = std::move(cur);
  epoch_start_tick_ = now;
  requests_in_epoch_ = 0;
}

void EpochSampler::on_request(Tick now) {
  ++requests_in_epoch_;
  last_tick_ = now;
  const bool by_requests =
      cfg_.every_requests > 0 && requests_in_epoch_ >= cfg_.every_requests;
  const bool by_ticks =
      cfg_.every_ticks > 0 && now >= epoch_start_tick_ + cfg_.every_ticks;
  if (by_requests || by_ticks) close_epoch(now);
}

void EpochSampler::restart(Tick now) {
  rows_.clear();
  next_epoch_ = 0;
  requests_in_epoch_ = 0;
  epoch_start_tick_ = now;
  last_tick_ = now;
  measured_start_tick_ = now;
  measured_start_known_ = true;
  snapshot(baseline_);
}

void EpochSampler::finish() {
  if (requests_in_epoch_ > 0) close_epoch(last_tick_);
}

void EpochSampler::serialize(snap::Archive& ar) {
  ar.count(rows_);
  for (EpochRow& row : rows_) {
    ar.u64(row.epoch);
    ar.u64(row.start_tick);
    ar.u64(row.end_tick);
    ar.u64(row.requests);
    ar.count(row.values);
    for (double& v : row.values) ar.f64(v);
  }
  ar.expect(baseline_.size(), "epoch sampler probe count");
  for (double& v : baseline_) ar.f64(v);
  ar.u64(next_epoch_);
  ar.u64(epoch_start_tick_);
  ar.u64(last_tick_);
  ar.u64(requests_in_epoch_);
  ar.u64(measured_start_tick_);
  ar.flag(measured_start_known_);
}

void write_epoch_csv_header(std::ostream& os,
                            const std::vector<std::string>& prefix_headers,
                            const std::vector<std::string>& columns) {
  TextTable t([&] {
    std::vector<std::string> h = prefix_headers;
    h.insert(h.end(), {"epoch", "start_tick", "end_tick", "requests"});
    h.insert(h.end(), columns.begin(), columns.end());
    return h;
  }());
  t.print_csv(os);
}

void write_epoch_csv_rows(std::ostream& os,
                          const std::vector<std::string>& prefix_values,
                          const std::vector<std::string>& row_columns,
                          const std::vector<std::string>& columns,
                          const std::vector<EpochRow>& rows) {
  // Map the union column set onto this run's columns (by name); a column
  // this run does not provide stays empty.
  std::vector<std::size_t> index(columns.size(), static_cast<std::size_t>(-1));
  for (std::size_t c = 0; c < columns.size(); ++c) {
    for (std::size_t r = 0; r < row_columns.size(); ++r) {
      if (row_columns[r] == columns[c]) {
        index[c] = r;
        break;
      }
    }
  }
  for (const auto& row : rows) {
    std::vector<std::string> cells = prefix_values;
    cells.push_back(std::to_string(row.epoch));
    cells.push_back(std::to_string(row.start_tick));
    cells.push_back(std::to_string(row.end_tick));
    cells.push_back(std::to_string(row.requests));
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (index[c] == static_cast<std::size_t>(-1) ||
          index[c] >= row.values.size()) {
        cells.emplace_back();
      } else {
        cells.push_back(json_double(row.values[index[c]]));
      }
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << csv_escape(cells[c]);
      if (c + 1 < cells.size()) os << ',';
    }
    os << '\n';
  }
}

}  // namespace bb
