#pragma once
// Harness for multi-shot TetraBFT integration tests.

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "multishot/node.hpp"
#include "sim/adversary.hpp"
#include "sim/runtime.hpp"

namespace tbft::test {

struct MsClusterOptions {
  std::uint32_t n{4};
  std::uint32_t f{1};
  sim::SimTime delta_bound{10 * sim::kMillisecond};
  sim::SimTime delta_actual{1 * sim::kMillisecond};
  sim::SimTime gst{0};
  std::uint64_t seed{1};
  std::uint32_t timeout_delta_multiple{9};
  Slot max_slots{20};
  std::uint32_t pipeline_depth{1};
  std::function<std::unique_ptr<sim::ProtocolNode>(NodeId, const multishot::MultishotConfig&)>
      make_node{};
  sim::AdversaryHook adversary{};
};

struct MsCluster {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<sim::CommitLog> log;  // every node's first decision per slot
  std::vector<multishot::MultishotNode*> nodes;  // nullptr for foreign nodes
  MsClusterOptions opts;

  [[nodiscard]] sim::SimTime timeout() const {
    return static_cast<sim::SimTime>(opts.timeout_delta_multiple) * opts.delta_bound;
  }

  [[nodiscard]] Slot min_finalized() const {
    Slot len = UINT64_MAX;
    for (const auto* node : nodes) {
      if (node != nullptr) len = std::min(len, node->finalized_count());
    }
    return len == UINT64_MAX ? 0 : len;
  }

  /// Every pair of finalized chains: one is a prefix of the other, and
  /// common slots carry identical blocks (Definition 2, Consistency).
  [[nodiscard]] bool chains_consistent() const {
    return multishot::chains_prefix_consistent(nodes);
  }

  bool run_until_finalized(Slot target, sim::SimTime deadline) {
    return sim->run_until_pred([this, target] { return min_finalized() >= target; }, deadline);
  }
};

/// Every ForwardTx relay the network carried, as (src, dst) in send order.
/// Install hook() as the cluster's adversary: it records and returns
/// nullopt, so each message's fate stays the network model's. The log must
/// outlive the cluster.
class RelayLog {
 public:
  RelayLog() = default;
  RelayLog(const RelayLog&) = delete;  // the hook holds its address
  RelayLog& operator=(const RelayLog&) = delete;

  [[nodiscard]] sim::AdversaryHook hook() {
    return [this](const sim::Envelope& env, sim::SimTime) -> std::optional<sim::DeliveryDecision> {
      if (!env.payload.empty() &&
          env.payload.front() == static_cast<std::uint8_t>(multishot::MsType::ForwardTx)) {
        relays_.emplace_back(env.src, env.dst);
      }
      return std::nullopt;
    };
  }

  /// Where `src` relayed to, in send order.
  [[nodiscard]] std::vector<NodeId> from(NodeId src) const {
    std::vector<NodeId> to;
    for (const auto& [s, d] : relays_) {
      if (s == src) to.push_back(d);
    }
    return to;
  }

 private:
  std::vector<std::pair<NodeId, NodeId>> relays_;
};

inline MsCluster make_ms_cluster(MsClusterOptions opts) {
  sim::SimConfig sc;
  sc.seed = opts.seed;
  sc.net.gst = opts.gst;
  sc.net.delta_bound = opts.delta_bound;
  sc.net.delta_actual = opts.delta_actual;
  sc.net.delta_min = opts.delta_actual;

  multishot::MultishotConfig cfg;
  cfg.n = opts.n;
  cfg.f = opts.f;
  cfg.delta_bound = opts.delta_bound;
  cfg.timeout_delta_multiple = opts.timeout_delta_multiple;
  cfg.max_slots = opts.max_slots;
  cfg.pipeline_depth = opts.pipeline_depth;

  MsCluster cluster;
  cluster.opts = opts;
  cluster.sim = std::make_unique<sim::Simulation>(sc);
  cluster.log = std::make_unique<sim::CommitLog>();
  cluster.sim->add_commit_sink(*cluster.log);
  if (opts.adversary) cluster.sim->network().set_adversary(opts.adversary);

  for (NodeId i = 0; i < opts.n; ++i) {
    std::unique_ptr<sim::ProtocolNode> node;
    if (opts.make_node) node = opts.make_node(i, cfg);
    if (!node) node = std::make_unique<multishot::MultishotNode>(cfg);
    cluster.nodes.push_back(dynamic_cast<multishot::MultishotNode*>(node.get()));
    cluster.sim->add_node(std::move(node));
  }
  cluster.sim->start();
  return cluster;
}

}  // namespace tbft::test
