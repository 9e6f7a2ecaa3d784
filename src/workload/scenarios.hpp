#pragma once
// Scenario presets: generators composed with the existing fault/adversary
// hooks into fully wired, deterministic load runs.
//
//  - kSteadyState:          constant-rate (or closed-loop) load, no faults;
//  - kBurst:                open-loop load with periodic rate bursts;
//  - kPartitionDuringLoad:  no quorum until GST (partition adversary) while
//                           clients keep submitting; everything admitted
//                           must commit after healing;
//  - kLeaderCrashUnderLoad: node 0 is crashed (silent) throughout -- every
//                           slot it leads needs a view change under load;
//  - kJunkFloodUnderLoad:   node n-1 broadcasts malformed garbage instead of
//                           participating (counts toward f).

#include <cstdint>
#include <memory>
#include <vector>

#include "multishot/node.hpp"
#include "sim/runtime.hpp"
#include "workload/generator.hpp"
#include "workload/tracker.hpp"

namespace tbft::workload {

enum class Preset : std::uint8_t {
  kSteadyState,
  kBurst,
  kPartitionDuringLoad,
  kLeaderCrashUnderLoad,
  kJunkFloodUnderLoad,
};

struct ScenarioOptions {
  Preset preset{Preset::kSteadyState};
  std::uint32_t n{4};
  std::uint32_t f{1};
  std::uint64_t seed{1};
  /// Generators submit during [0, load_duration).
  sim::SimTime load_duration{500 * sim::kMillisecond};
  /// Absolute cap on the run while draining outstanding requests.
  sim::SimTime drain_deadline{120 * sim::kSecond};
  bool closed_loop{false};
  std::uint32_t clients{2};
  double rate_per_sec{2000.0};   // per open-loop client
  std::uint32_t outstanding{8};  // per closed-loop client
  std::uint32_t request_bytes{64};
  // Node-side batching/mempool knobs (MultishotConfig passthrough).
  std::uint32_t max_batch_txs{64};
  std::uint32_t max_batch_bytes{8192};
  /// Stripe length: consecutive slots one leader owns (1 = classic).
  std::uint32_t pipeline_depth{1};
  /// Adaptive per-proposal tx ceiling under backlog (<= max_batch_txs = off).
  std::uint32_t adaptive_batch_txs{0};
  std::size_t mempool_capacity{4096};
  sim::SimTime delta_bound{10 * sim::kMillisecond};
  sim::SimTime delta_actual{1 * sim::kMillisecond};
  /// Optional explicit GST with benign pre-GST stochastics (no random drops,
  /// delta_actual delays): gives tests a window to attach their own pre-GST
  /// adversary hook to an otherwise well-behaved network. The partition
  /// preset manages its own GST and ignores this.
  sim::SimTime gst{0};
  /// Client-side retry (ClientConfig passthrough): re-submit an admitted
  /// request to the next replica when it has not committed within this long
  /// (0 = off). The rescue path when a replica crashes after admission.
  runtime::Duration client_retry_timeout{0};
};

/// The client side of a loaded sim run. Client c has tag namespace c,
/// submits during [0, stop) and walks the ports round-robin starting at
/// port c, so clients spread across replicas.
struct ClientLoad {
  std::uint32_t clients{2};
  bool closed_loop{false};
  /// Open loop only: 4x the rate for the first quarter of each quarter of
  /// the load window.
  bool burst{false};
  double rate_per_sec{2000.0};   // per open-loop client
  std::uint32_t outstanding{8};  // per closed-loop client
  std::uint32_t request_bytes{64};
  sim::SimTime stop{0};
  runtime::Duration retry_timeout{0};
};

/// Add `load`'s clients to `sim`, targeting `ports` and reporting to
/// `tracker`. Every simulated load run wires its clients here.
void add_clients(sim::Simulation& sim, const ClientLoad& load,
                 const std::vector<SubmitPort*>& ports, WorkloadTracker& tracker);

/// A wired run for tests that drive the simulation themselves. Actor
/// pointers are owned by `sim`.
struct WorkloadRig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<WorkloadTracker> tracker;
  /// Each honest replica's chain instance (a one-shard shard::ShardMux,
  /// as the facade builds); nullptr for crashed/junk.
  std::vector<multishot::MultishotNode*> nodes;
  /// Submission ports the generators target (one shard::RoutedPort per
  /// honest replica, in node order).
  std::vector<std::unique_ptr<SubmitPort>> ports;
  multishot::MultishotConfig node_cfg;
  sim::SimTime gst{0};

  /// Definition 2 (Consistency) over every observed pair of finalized chains.
  [[nodiscard]] bool chains_consistent() const;
};

/// Build the preset's simulation, nodes, tracker and generators (not yet
/// started).
[[nodiscard]] WorkloadRig make_rig(const ScenarioOptions& opts);

struct ScenarioResult {
  WorkloadReport report;
  std::uint64_t trace_digest{0};
  sim::SimTime elapsed{0};
  bool all_admitted_committed{false};
  bool chains_consistent{false};
};

/// Run the preset end to end: load window, then drain until every admitted
/// request commits (or drain_deadline).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioOptions& opts);

}  // namespace tbft::workload
