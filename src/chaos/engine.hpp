#pragma once
// Chaos engine: runs one ScenarioPlan through the Simulation and renders a
// verdict. The engine wires the plan's WAN topology into the Network, builds
// the Byzantine role cast from sim/adversary.hpp, gives every honest replica
// a durable chain (src/storage/) in the run's work directory, drives the
// churn schedule through Simulation::crash_node / restart_node -- restarts
// recover from disk exactly like a rebooted process -- and loads the cluster
// with the workload generators under exactly-once tracking.
//
// The verdict asserts, on every run:
//  - safety: chain-prefix consistency across every honest replica
//    (Definition 2), zero double-commits, zero foreign commits;
//  - bounded at-least-once spill: double-commits attributable to client
//    retries stay <= the number of retries (each retry opens at most one
//    known duplication window);
//  - post-heal liveness: every admitted request commits before the drain
//    deadline (client retries rescue requests stranded in a crashed
//    replica's mempool).

#include <filesystem>
#include <string>

#include "chaos/scenario.hpp"
#include "workload/tracker.hpp"

namespace tbft::chaos {

struct ChaosVerdict {
  workload::WorkloadReport report;
  bool chains_consistent{false};
  bool drained{false};          // all admitted committed in time
  bool progressed{false};       // at least one request committed
  std::uint64_t trace_digest{0};
  Slot max_finalized{0};
  sim::SimTime elapsed{0};
  std::uint32_t crashes{0};
  std::uint32_t restarts{0};
  /// Tracker observers installed (honest replicas + one per restart); the
  /// tracker counts a double-commit once per observer that sees it.
  std::uint64_t observers{0};
  /// Undrained runs only: per honest chain, the first unfinalized slot, the
  /// proposal frontier and the state of the first few unfinalized slots.
  std::string triage;

  /// Safety + exactly-once accounting (the never-acceptable failures).
  /// Retry spill is bounded: each retry puts at most one extra copy in
  /// flight, each extra commit is seen by every observer.
  [[nodiscard]] bool safe() const {
    return chains_consistent && report.duplicates == 0 && report.foreign == 0 &&
           report.retry_duplicates <= report.retried * observers;
  }
  /// The full pass bar: safe, live after healing, and actually loaded.
  [[nodiscard]] bool ok() const { return safe() && drained && progressed; }

  /// Short reason string for failures ("" when ok()).
  [[nodiscard]] std::string failure() const;
};

/// Run the plan; `work_dir` holds the per-node durable chains (created,
/// reused across crash/restart within the run; caller owns cleanup).
[[nodiscard]] ChaosVerdict run_plan(const ScenarioPlan& plan,
                                    const std::filesystem::path& work_dir);

}  // namespace tbft::chaos
