#pragma once
// Shared harness for single-shot TetraBFT integration tests and benches:
// builds a Simulation hosting n nodes (honest by default, Byzantine via a
// factory override) and provides decision/agreement assertions (through a
// CommitLog subscribed to every commit).

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/byzantine.hpp"
#include "core/node.hpp"
#include "sim/adversary.hpp"
#include "sim/runtime.hpp"

namespace tbft::test {

struct ClusterOptions {
  std::uint32_t n{4};
  std::uint32_t f{1};
  sim::SimTime delta_bound{10 * sim::kMillisecond};
  sim::SimTime delta_actual{1 * sim::kMillisecond};
  sim::SimTime delta_min{1 * sim::kMillisecond};
  sim::DelayModel delay_model{sim::DelayModel::Constant};
  sim::SimTime gst{0};
  std::uint64_t seed{1};
  std::uint32_t timeout_delta_multiple{9};
  /// Initial value for node i defaults to 100 + i; override here.
  std::function<Value(NodeId)> initial_value{};
  /// Returns a node for index i, or nullptr for the default honest node.
  std::function<std::unique_ptr<sim::ProtocolNode>(NodeId, const core::TetraConfig&)> make_node{};
  sim::AdversaryHook adversary{};
};

struct Cluster {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<sim::CommitLog> log;  // every node's first decision
  std::vector<core::TetraNode*> tetra;  // nullptr for non-TetraNode members
  ClusterOptions opts;

  [[nodiscard]] sim::SimTime timeout() const {
    return static_cast<sim::SimTime>(opts.timeout_delta_multiple) * opts.delta_bound;
  }

  /// All TetraNode members have decided.
  [[nodiscard]] bool all_decided() const {
    for (const auto* node : tetra) {
      if (node != nullptr && !node->decision()) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t decided_count() const {
    std::size_t k = 0;
    for (const auto* node : tetra) {
      if (node != nullptr && node->decision()) ++k;
    }
    return k;
  }

  /// The unique decided value; fails the test if decisions disagree or none.
  [[nodiscard]] std::optional<Value> agreed_value() const {
    std::optional<Value> val;
    for (const auto* node : tetra) {
      if (node == nullptr || !node->decision()) continue;
      if (val && !(*val == *node->decision())) return std::nullopt;
      val = node->decision();
    }
    return val;
  }

  /// Run until every honest node decided (or deadline); returns success.
  bool run_until_all_decided(sim::SimTime deadline) {
    return sim->run_until_pred([this] { return all_decided(); }, deadline);
  }
};

inline core::TetraConfig make_config(const ClusterOptions& opts, NodeId id) {
  core::TetraConfig cfg;
  cfg.n = opts.n;
  cfg.f = opts.f;
  cfg.delta_bound = opts.delta_bound;
  cfg.timeout_delta_multiple = opts.timeout_delta_multiple;
  cfg.initial_value = opts.initial_value ? opts.initial_value(id) : Value{100 + id};
  return cfg;
}

inline Cluster make_cluster(ClusterOptions opts) {
  sim::SimConfig sc;
  sc.seed = opts.seed;
  sc.net.gst = opts.gst;
  sc.net.delta_bound = opts.delta_bound;
  sc.net.delta_actual = opts.delta_actual;
  sc.net.delta_min = opts.delta_min;
  sc.net.model = opts.delay_model;

  Cluster cluster;
  cluster.opts = opts;
  cluster.sim = std::make_unique<sim::Simulation>(sc);
  cluster.log = std::make_unique<sim::CommitLog>();
  cluster.sim->add_commit_sink(*cluster.log);
  if (opts.adversary) cluster.sim->network().set_adversary(opts.adversary);

  for (NodeId i = 0; i < opts.n; ++i) {
    const core::TetraConfig cfg = make_config(opts, i);
    std::unique_ptr<sim::ProtocolNode> node;
    if (opts.make_node) node = opts.make_node(i, cfg);
    if (!node) node = std::make_unique<core::TetraNode>(cfg);
    auto* as_tetra = dynamic_cast<core::TetraNode*>(node.get());
    cluster.tetra.push_back(as_tetra);
    cluster.sim->add_node(std::move(node));
  }
  cluster.sim->start();
  return cluster;
}

/// Convenience: indexes of honest TetraNodes (skips nullptr slots).
inline std::vector<NodeId> tetra_ids(const Cluster& c) {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < c.tetra.size(); ++i) {
    if (c.tetra[i] != nullptr) ids.push_back(i);
  }
  return ids;
}

}  // namespace tbft::test
