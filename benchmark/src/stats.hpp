#pragma once
// Order statistics for every timing the benchmark reports.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bench {

/// Samples needed beyond a reported percentile: a tail value resting on
/// fewer observations says more about one outlier than about the system.
inline constexpr std::size_t kTailSupport = 10;

/// Nearest-rank quantile `q` of `v`, capped by the percentile rule: the
/// reported rank always has at least kTailSupport samples beyond it, so a
/// requested p99 over 500 samples reports the p97.8 value instead. With no
/// rank that qualifies (n <= kTailSupport) the minimum is reported. Reorders
/// `v`; returns 0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = rank == 0 ? 0 : rank - 1;
  const std::size_t cap = n > kTailSupport ? n - 1 - kTailSupport : 0;
  rank = std::min({rank, cap, n - 1});
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace bench
