#pragma once
// One measured run of one workload: build the cluster, load it, drain it,
// check it, and compute its metrics.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tetrabft.hpp"

namespace bench {

enum class HostKind { kSim, kThreads, kSockets };

struct Workload {
  const char* name;
  HostKind host;
  /// A round's load. An open loop (sim only) sends Poisson arrivals at
  /// `rate` tx/s, whatever the system does, for `window_ns` of simulated
  /// time. A closed loop keeps `outstanding` requests in flight until it has
  /// issued `requests`; its window ends with the last of them.
  bool closed;
  double rate;
  std::uint32_t outstanding;
  std::int64_t window_ns;
  std::uint32_t requests;
  /// Replica 0 crashes this far into the window (share of it); < 0 never.
  double crash_at;
  /// A request not committed this long after its submission is resubmitted
  /// to the next replica; 0 never.
  std::int64_t retry_ns;
  bool wal;
  /// The workload's settings on top of n, f and the seed.
  void (*configure)(tbft::ClusterBuilder&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Report-only baselines of a traced threads-durable run.
enum class Variant { kNormal, kSingleNode, kNoWal };

struct RunSpec {
  const Workload* workload{nullptr};
  std::uint64_t seed{1};
  bool traced{false};
  Variant variant{Variant::kNormal};
  /// Scratch space for the WAL data directories; removed after the run.
  std::filesystem::path work_dir;
  /// Where a traced run writes <workload>.spans.jsonl.
  std::filesystem::path trace_dir;
};

struct RunResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> violations;

  [[nodiscard]] double get(std::string_view name) const {
    for (const auto& [k, v] : metrics) {
      if (k == name) return v;
    }
    return 0.0;
  }
};

/// One round, in the calling process; it confines the process to the CPU it
/// runs on.
RunResult run_workload(const RunSpec& spec);

}  // namespace bench
