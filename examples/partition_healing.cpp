// Partial synchrony in action: the network starts partitioned (node 3 cut
// off), the other nodes decide, and after GST the straggler catches up
// through the Decide catch-up path -- demonstrating both safety during
// asynchrony and optimistic responsiveness after it (paper §2, §1.2).
//
//   ./build/partition_healing

#include <cstdio>

#include "core/node.hpp"
#include "sim/adversary.hpp"
#include "sim/runtime.hpp"

using namespace tbft;

int main() {
  const sim::SimTime gst = 300 * sim::kMillisecond;

  sim::SimConfig sc;
  sc.net.gst = gst;
  sc.net.delta_actual = 1 * sim::kMillisecond;
  sc.net.delta_bound = 10 * sim::kMillisecond;
  sim::Simulation simulation(sc);
  sim::CommitLog log;  // first decision per node and stream
  simulation.add_commit_sink(log);

  // Before GST: everything to/from node 3 is dropped; the rest flows
  // normally. After GST the partition heals (partial synchrony guarantees
  // delivery within Delta).
  simulation.network().set_adversary(
      [gst](const sim::Envelope& env, sim::SimTime at) -> std::optional<sim::DeliveryDecision> {
        if (at < gst && (env.src == 3 || env.dst == 3)) {
          return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
        }
        return sim::DeliveryDecision{.drop = false, .deliver_at = at + sim::kMillisecond};
      });

  std::vector<core::TetraNode*> nodes;
  for (NodeId i = 0; i < 4; ++i) {
    core::TetraConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.delta_bound = sc.net.delta_bound;
    cfg.initial_value = Value{100 + i};
    auto node = std::make_unique<core::TetraNode>(cfg);
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }
  simulation.start();

  simulation.run_until(gst);
  std::printf("at GST (t = %lld ms):\n", static_cast<long long>(gst / sim::kMillisecond));
  for (NodeId i = 0; i < 4; ++i) {
    if (nodes[i]->decision()) {
      std::printf("  node %u decided %llu at %.1f ms (inside the majority partition)\n", i,
                  static_cast<unsigned long long>(nodes[i]->decision()->id),
                  static_cast<double>(log.decision_of(i)->at) / sim::kMillisecond);
    } else {
      std::printf("  node %u undecided (cut off)\n", i);
    }
  }

  const bool done = simulation.run_until_pred(
      [&] { return nodes[3]->decision().has_value(); }, gst + 10 * sim::kSecond);
  if (!done) {
    std::printf("straggler never caught up -- this should not happen\n");
    return 1;
  }
  const auto d3 = log.decision_of(3);
  std::printf(
      "\nafter GST node 3's view-change probe is answered with f+1 Decide\n"
      "notices and it adopts the decision: value %llu at t = %.1f ms\n"
      "(%.1f ms after GST -- proportional to the actual delay, not Delta).\n",
      static_cast<unsigned long long>(d3->value.id),
      static_cast<double>(d3->at) / sim::kMillisecond,
      static_cast<double>(d3->at - gst) / sim::kMillisecond);
  const bool agreement = log.agreement_holds();
  std::printf("agreement across the partition: %s\n", agreement ? "holds" : "VIOLATED");
  return agreement ? 0 : 1;
}
