// Byzantine-leader recovery: the view-0 leader equivocates (proposes
// different values to different halves of the network). No value reaches a
// quorum, the 9*Delta timers fire, the nodes change views, and view 1's
// honest leader drives a decision -- with safety intact throughout.
//
//   ./build/byzantine_recovery

#include <cstdio>

#include "core/byzantine.hpp"
#include "sim/runtime.hpp"

using namespace tbft;

int main() {
  sim::SimConfig sc;
  sc.net.delta_actual = 1 * sim::kMillisecond;
  sc.net.delta_bound = 10 * sim::kMillisecond;
  sim::Simulation simulation(sc);
  sim::CommitLog log;  // first decision per node and stream
  simulation.add_commit_sink(log);

  std::vector<core::TetraNode*> nodes;
  for (NodeId i = 0; i < 4; ++i) {
    core::TetraConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.delta_bound = sc.net.delta_bound;
    cfg.initial_value = Value{100 + i};
    std::unique_ptr<core::TetraNode> node;
    if (i == 0) {
      // The view-0 leader: sends value 666 to nodes 0-1 and 667 to 2-3.
      node = std::make_unique<core::EquivocatingLeaderNode>(cfg, Value{666}, Value{667});
      std::printf("node 0: Byzantine (equivocating leader of view 0)\n");
    } else {
      node = std::make_unique<core::TetraNode>(cfg);
      std::printf("node %u: honest, initial value %u\n", i, 100 + i);
    }
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }

  simulation.start();
  const bool done = simulation.run_until_pred(
      [&] {
        for (NodeId i = 1; i < 4; ++i) {
          if (!nodes[i]->decision()) return false;
        }
        return true;
      },
      10 * sim::kSecond);

  std::printf("\ntimeline:\n");
  std::printf("  t=0        view 0 starts; Byzantine leader equivocates 666/667\n");
  std::printf("  t=1..2ms   vote-1 splits 2/2 -- no quorum, no vote-2 anywhere\n");
  std::printf("  t=90ms     9*Delta timers fire; view-change messages for view 1\n");
  std::printf("  t=91ms     n-f view-changes received; every node enters view 1\n");
  std::printf("  t=92ms     suggest/proof exchanged; leader 1 finds a safe value\n");
  std::printf("  t=93..97ms proposal + four vote phases\n\n");

  if (!done) {
    std::printf("recovery failed -- this should not happen\n");
    return 1;
  }
  bool byzantine_decided = false;
  for (NodeId i = 1; i < 4; ++i) {
    const auto d = log.decision_of(i);
    const auto id = nodes[i]->decision()->id;
    byzantine_decided = byzantine_decided || id == 666 || id == 667;
    std::printf("node %u decided value %llu at t = %.1f ms (view %lld)\n", i,
                static_cast<unsigned long long>(id),
                static_cast<double>(d->at) / sim::kMillisecond,
                static_cast<long long>(nodes[i]->current_view()));
  }
  const bool agreement = log.agreement_holds();
  std::printf("\nagreement: %s; the Byzantine values 666/667 were %s.\n",
              agreement ? "holds" : "VIOLATED", byzantine_decided ? "DECIDED" : "never decided");
  return agreement && !byzantine_decided ? 0 : 1;
}
