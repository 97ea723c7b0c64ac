// analyze-expect: schema=0
//
// Negative fixture for the schema rule: probe names are snake_case and
// unique per register_metrics (runtime-prefixed names are distinct from
// bare literals, and separate register_metrics bodies may reuse a name).
// Never compiled.
#include <string>

void Device::register_metrics(MetricRegistry& reg, std::string prefix) const {
  reg.add_counter("row_hits", [this] { return hits_; });
  // A runtime prefix makes this distinct from the bare literal above.
  reg.add_counter(prefix + "row_hits", [this] { return hits_; });
  reg.add_gauge("occupancy", [this] { return occ_; });
}

void Controller::register_metrics(MetricRegistry& reg) const {
  reg.add_counter("row_hits", [this] { return hits_; });
  reg.add_ratio("hbm_serve_rate", [this] { return served_; },
                [this] { return requests_; });
}
