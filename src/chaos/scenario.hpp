#pragma once
// Seeded chaos scenarios: a ScenarioPlan is a fully materialized fault
// schedule -- WAN shape, Byzantine role assignment, node-churn windows, and
// client load -- drawn as a pure function of a 64-bit seed. The fuzzer
// (chaos/fuzzer.hpp) draws plans, the engine (chaos/engine.hpp) runs them
// through the Simulation, and any failure replays deterministically from
// `fuzz_driver --seed=N` alone.
//
// Schedule encoding (DESIGN_PERF.md "Chaos & fuzzing"): every knob below is
// drawn from one Rng(seed) stream in a fixed order, so the plan *is* the
// seed -- plans are never serialized, only re-drawn.
//
// Fault budget: Byzantine roles occupy their slice of f for the whole run;
// churn windows are laid out sequentially (at most one node down at a time)
// and only when the Byzantine count leaves budget, so the protocol's n > 3f
// assumption holds at every instant and safety + post-heal liveness are
// legitimate assertions on every run.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/network.hpp"

namespace tbft::chaos {

enum class WanShape : std::uint8_t {
  kLan,           // sub-ms uniform links, no caps
  kUniformWan,    // tens-of-ms links, jitter, optional bandwidth caps
  kGeoRegions,    // three regions: cheap intra, expensive symmetric inter
  kGeoAsymmetric, // per-direction latencies drawn independently
};

enum class ByzRole : std::uint8_t {
  kHonest,
  kSilent,       // crash fault: never says anything
  kJunk,         // floods malformed bytes
  kSlowLoris,    // proposes at the timeout edge
  kEquivocator,  // equivocates re-proposals during view change
};

enum class LoadShape : std::uint8_t { kOpenSteady, kOpenBurst, kClosedLoop };

/// One node-churn window: crash at down_at, restart (through the
/// src/storage/ recovery path) at up_at.
struct ChurnEvent {
  NodeId node{0};
  sim::SimTime down_at{0};
  sim::SimTime up_at{0};
};

struct ScenarioPlan {
  std::uint64_t seed{1};
  std::uint32_t n{4};
  std::uint32_t f{1};

  WanShape wan{WanShape::kLan};
  sim::WanTopology topology;
  /// Known Delta the node timeouts use; sized to clear the topology's
  /// worst latency + jitter so the shape is felt un-clamped.
  sim::SimTime delta_bound{0};

  LoadShape load{LoadShape::kOpenSteady};
  std::uint32_t clients{2};
  double rate_per_sec{500.0};    // per open-loop client
  std::uint32_t outstanding{4};  // per closed-loop client
  std::uint32_t request_bytes{48};
  sim::SimTime load_duration{0};
  sim::SimTime drain_deadline{0};
  runtime::Duration client_retry_timeout{0};

  std::vector<ByzRole> roles;     // size n; kHonest for most
  std::vector<ChurnEvent> churn;  // sorted by down_at, non-overlapping

  /// Stripe length: consecutive slots one leader owns (1 = classic cadence).
  std::uint32_t pipeline_depth{1};
  /// Adaptive per-proposal tx ceiling under backlog (0 = fixed caps).
  std::uint32_t adaptive_batch_txs{0};
  /// Key-routed chain instances per replica (1 = classic single chain;
  /// >1 runs every honest replica as a shard::ShardMux).
  std::uint32_t shards{1};

  [[nodiscard]] std::uint32_t byzantine_count() const {
    std::uint32_t c = 0;
    for (const ByzRole r : roles) c += r != ByzRole::kHonest;
    return c;
  }

  /// One-line human summary (logged next to reproducer commands).
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] const char* wan_shape_name(WanShape s);
[[nodiscard]] const char* byz_role_name(ByzRole r);
[[nodiscard]] const char* load_shape_name(LoadShape l);

/// Materialize the plan for `seed`. Pure: equal seeds yield equal plans.
[[nodiscard]] ScenarioPlan draw_plan(std::uint64_t seed);

}  // namespace tbft::chaos
