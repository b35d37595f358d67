// MetricView — a namespaced window onto a MetricRegistry.
//
// A component handed a view ("pool3.") over a shared registry mints
// counters and gauges through it without knowing (or being able to collide
// with) the global namespace, and an operator can snapshot just that
// component's metrics by prefix.  A view is a naming convention plus a
// filter — it allocates nothing and adds no indirection on the hot path
// (the returned handles are ordinary registry handles bound to the
// prefixed name).
#pragma once

#include <string>

#include "telemetry/registry.hpp"

namespace mc::telemetry {

class MetricView {
 public:
  /// A view over `registry` whose metric names all start with `prefix`
  /// (convention: "<component>." — the trailing separator is the caller's
  /// choice, the view just concatenates).
  MetricView(MetricRegistry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {}

  Counter counter(const std::string& name) {
    return registry_->counter(prefix_ + name);
  }

  OwnedCounter owned_counter(const std::string& name) {
    return registry_->owned_counter(prefix_ + name);
  }

  Gauge gauge(const std::string& name) {
    return registry_->gauge(prefix_ + name);
  }

  Histogram histogram(const std::string& name,
                      HistogramSpec spec = HistogramSpec::latency()) {
    return registry_->histogram(prefix_ + name, spec);
  }

  /// Snapshot of only this view's metrics (names keep the prefix, so the
  /// JSON stays globally unambiguous).
  MetricsSnapshot snapshot() const;

  const std::string& prefix() const { return prefix_; }
  MetricRegistry& registry() const { return *registry_; }

 private:
  MetricRegistry* registry_;
  std::string prefix_;
};

}  // namespace mc::telemetry
