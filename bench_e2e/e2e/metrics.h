// Named results and pass/fail checks of one benchmark run.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace lumiere::e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in insertion order; setting a name again replaces its value.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& metric : list_) {
      if (metric.name == name) {
        metric.value = value;
        metric.unit = unit;
        return;
      }
    }
    list_.push_back(Metric{name, value, unit});
  }
  void merge(const Metrics& other) {
    for (const Metric& metric : other.list_) set(metric.name, metric.value, metric.unit);
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& metric : list_) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<Metric>& list() const noexcept { return list_; }

 private:
  std::vector<Metric> list_;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

}  // namespace lumiere::e2e
