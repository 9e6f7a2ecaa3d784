#pragma once
// Lightweight metrics used by the simulator and benches: named counters and
// fixed-shape histograms. A MetricsRegistry is owned by a simulation run, so
// concurrent experiments never share state.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace tbft {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_{0};
};

/// Streaming summary statistics (count/sum/min/max/mean) in constant
/// memory: recording never allocates, so a long-running node's own metrics
/// stay bounded. Callers that need exact percentiles keep their samples
/// themselves (workload::WorkloadTracker does, for commit latency).
class Histogram {
 public:
  void record(double sample) noexcept {
    ++count_;
    sum_ += sample;
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  void reset() noexcept { *this = Histogram{}; }

 private:
  std::size_t count_{0};
  double sum_{0};
  double min_{1e300};
  double max_{-1e300};
};

class MetricsRegistry {
 public:
  template <typename T>
  using Map = std::map<std::string, T, std::less<>>;

  /// Lookups compare against the stored keys directly (transparent
  /// comparator), so a hit costs no allocation: per-transaction call sites
  /// pass literals, and most names outgrow the small-string buffer.
  Counter& counter(std::string_view name) { return find_or_add(counters_, name); }
  Histogram& histogram(std::string_view name) { return find_or_add(histograms_, name); }

  [[nodiscard]] const Map<Counter>& counters() const noexcept { return counters_; }
  [[nodiscard]] const Map<Histogram>& histograms() const noexcept { return histograms_; }

 private:
  template <typename T>
  static T& find_or_add(Map<T>& map, std::string_view name) {
    if (const auto it = map.find(name); it != map.end()) return it->second;
    return map.emplace(std::string(name), T{}).first->second;
  }

  Map<Counter> counters_;
  Map<Histogram> histograms_;
};

}  // namespace tbft
