// Workload demo: clients generating load against the multishot TetraBFT
// pipeline, end to end -- open-loop Poisson arrivals, leader batching,
// bounded mempools, and submit->commit latency accounting.
//
//   ./build/workload_demo
//
// Two runs are shown: a clean steady-state run, and the same load with the
// network partitioned until GST -- every request admitted during the
// partition commits after healing, exactly once.

#include <cstdio>

#include "workload/scenarios.hpp"

using namespace tbft;

int main() {
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.seed = 7;
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 1000;
  opts.clients = 2;

  std::printf("steady state: 2 open-loop clients x 1000 req/s for 300 ms, n=4\n");
  const auto steady = workload::run_scenario(opts);
  steady.report.print("  steady-state");
  std::printf("  all admitted committed: %s, exactly once: %s, chains consistent: %s\n\n",
              steady.all_admitted_committed ? "yes" : "NO",
              steady.report.exactly_once() ? "yes" : "NO",
              steady.chains_consistent ? "yes" : "NO");

  opts.preset = workload::Preset::kPartitionDuringLoad;
  std::printf("partition during load: no quorum until GST=150 ms, same load\n");
  const auto part = workload::run_scenario(opts);
  part.report.print("  partition");
  std::printf("  all admitted committed: %s, exactly once: %s, chains consistent: %s\n",
              part.all_admitted_committed ? "yes" : "NO",
              part.report.exactly_once() ? "yes" : "NO",
              part.chains_consistent ? "yes" : "NO");
  std::printf("  latency p50 %.1f ms vs max %.1f ms -- the tail is the partition\n",
              part.report.latency_p50_ms, part.report.latency_max_ms);

  const bool ok = steady.all_admitted_committed && steady.report.exactly_once() &&
                  steady.chains_consistent && part.all_admitted_committed &&
                  part.report.exactly_once() && part.chains_consistent;
  return ok ? 0 : 1;
}
