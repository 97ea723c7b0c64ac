// analyze-expect: schema=2
//
// Positive fixture for the schema rule: one register_metrics body with a
// probe name that is not snake_case and a probe name registered twice
// (the epoch CSV would carry an ambiguous column). Never compiled.
#include <string>

void Device::register_metrics(MetricRegistry& reg) const {
  reg.add_counter("row_hits", [this] { return hits_; });
  reg.add_gauge("QueueDepth", [this] { return depth_; });  // not snake_case
  reg.add_counter("row_hits", [this] { return misses_; });  // duplicate
}
