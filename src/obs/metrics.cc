#include "obs/metrics.h"

#include <algorithm>

namespace ironsafe::obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Snapshot() const {
  std::vector<std::pair<std::string, int64_t>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.value());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ironsafe::obs
