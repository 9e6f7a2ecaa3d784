#pragma once
// Lightweight metrics used by the simulator and benches: named counters and
// fixed-shape histograms. A MetricsRegistry is owned by a simulation run, so
// concurrent experiments never share state.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

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
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace tbft
