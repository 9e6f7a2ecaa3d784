// Blockchain demo: pipelined multi-shot TetraBFT (paper §6) building a
// chain of blocks, one notarization per message delay, with client
// transactions flowing into blocks and out as finalized state.
//
//   ./build/blockchain_demo

#include <cstdio>
#include <string>

#include "multishot/node.hpp"
#include "sim/runtime.hpp"

using namespace tbft;

int main() {
  sim::SimConfig sc;
  sc.net.delta_actual = 1 * sim::kMillisecond;
  sc.net.delta_bound = 10 * sim::kMillisecond;
  sim::Simulation simulation(sc);
  sim::CommitLog log;  // first decision per node and stream
  simulation.add_commit_sink(log);

  multishot::MultishotConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.delta_bound = sc.net.delta_bound;
  cfg.max_slots = 20;

  std::vector<multishot::MultishotNode*> nodes;
  for (NodeId i = 0; i < cfg.n; ++i) {
    auto node = std::make_unique<multishot::MultishotNode>(cfg);
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }

  // Submit a few "transactions" to every node before the run; whichever
  // leader proposes next includes them.
  const std::vector<std::string> txs = {"alice->bob:10", "bob->carol:4", "carol->dave:1"};
  for (auto* node : nodes) {
    for (const auto& tx : txs) {
      node->submit_tx({tx.begin(), tx.end()});
    }
  }

  simulation.start();
  const bool reached = simulation.run_until_pred(
      [&] {
        for (auto* n : nodes) {
          if (n->finalized_count() < 12) return false;
        }
        return true;
      },
      10 * sim::kSecond);

  const multishot::MultishotNode* node0 = nodes[0];
  const Slot count = node0->finalized_count();
  std::printf("finalized chain at node 0 (%llu blocks):\n",
              static_cast<unsigned long long>(count));
  for (Slot s = node0->chain().tail_first(); s <= count; ++s) {
    const multishot::Block& b = *node0->block_at(s);
    std::printf("  slot %2llu  proposer %u  payload %3zu B  hash %016llx  parent %016llx\n",
                static_cast<unsigned long long>(b.slot), b.proposer, b.payload.size(),
                static_cast<unsigned long long>(b.hash()),
                static_cast<unsigned long long>(b.parent_hash));
  }

  std::printf("\ntransaction inclusion:\n");
  bool all_included = true;
  for (const auto& tx : txs) {
    const std::vector<std::uint8_t> bytes(tx.begin(), tx.end());
    bool everywhere = true;
    for (auto* n : nodes) everywhere = everywhere && n->tx_finalized(bytes);
    all_included = all_included && everywhere;
    std::printf("  %-16s %s\n", tx.c_str(),
                everywhere ? "finalized on every node" : "NOT finalized everywhere");
  }

  // Consistency check across nodes (Definition 2 of the paper).
  const bool consistent = multishot::chains_prefix_consistent(nodes);
  std::printf("\nchains prefix-consistent across all nodes: %s\n", consistent ? "yes" : "NO");
  if (const auto last = log.decision_of(0, count)) {
    std::printf("throughput: %llu blocks in %lld ms of simulated time (1 block per delay)\n",
                static_cast<unsigned long long>(count),
                static_cast<long long>(last->at / sim::kMillisecond));
  }
  if (!reached) std::printf("fewer than 12 blocks finalized on every node\n");
  return reached && all_included && consistent ? 0 : 1;
}
