// Quickstart: run multi-shot TetraBFT through the public facade
// (tetrabft.hpp) -- first as a real-time in-process cluster (one thread per
// node, wall-clock time), then the same configuration under the
// deterministic simulator. The protocol nodes are the identical binaries in
// both runs; only the Host behind the runtime API changes.
//
//   ./build/quickstart

#include <atomic>
#include <cstdio>
#include <vector>

#include "tetrabft.hpp"

using namespace tbft;

int main() {
  constexpr std::uint32_t kTxs = 32;
  const auto tx = [](std::uint32_t j) {
    return std::vector<std::uint8_t>{'t', 'x', static_cast<std::uint8_t>(j)};
  };

  // 1. Configure once: four nodes (one fault tolerated), one transaction
  //    per block. Pre-start seeding at node 1 (the leader of slot 1, so it
  //    relays nothing) + a generous Delta is the *deterministic*
  //    configuration (the one the cross-runner equivalence test pins down):
  //    each transaction lands in the same slot under any host, so the two
  //    chains below must match block for block.
  ClusterBuilder builder;
  builder.nodes(4)
      .delta_bound(1 * runtime::kSecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096);

  // 2. Real-time cluster: node threads, mutex mailboxes, steady-clock
  //    timers. Commits stream back on replica threads; the other leaders
  //    propose filler blocks in between, so count replica 0's committed
  //    transactions rather than its slots.
  auto cluster = builder.build_local();
  std::atomic<std::uint32_t> txs0{0};
  std::atomic<std::int64_t> last_commit_us{0};
  cluster->on_commit([&](const runtime::Commit& c) {
    if (c.node == 0 && !multishot::payload_frames(c.payload).empty()) {
      txs0.fetch_add(1);
      last_commit_us.store(c.at);
    }
  });

  std::printf("submitting %u transactions to a 4-node real-time cluster...\n", kTxs);
  for (std::uint32_t j = 0; j < kTxs; ++j) {
    cluster->submit(1, tx(j));
  }
  cluster->start();
  const bool done =
      cluster->wait_for([&] { return txs0.load() >= kTxs; }, 30 * runtime::kSecond);
  cluster->stop();
  if (!done) {
    std::printf("cluster did not commit everything in time -- this should not happen\n");
    return 1;
  }

  std::printf("replica 0 finalized %llu slots in %.2f ms of wall-clock time\n",
              static_cast<unsigned long long>(cluster->instance(0).finalized_count()),
              static_cast<double>(last_commit_us.load()) / runtime::kMillisecond);

  // 3. The same configuration under the simulator: virtual time, seeded,
  //    deterministic -- the verification tool of record.
  auto sim_cluster = builder.build_sim();
  for (std::uint32_t j = 0; j < kTxs; ++j) {
    sim_cluster->submit(1, tx(j));
  }
  sim_cluster->start();
  const auto all_finalized = [&] {
    for (const auto* chain : sim_cluster->shard_instances()) {
      for (std::uint32_t j = 0; j < kTxs; ++j) {
        if (!chain->tx_finalized(tx(j))) return false;
      }
    }
    return true;
  };
  if (!sim_cluster->wait_for(all_finalized, 60 * runtime::kSecond)) {
    std::printf("simulation did not finalize -- this should not happen\n");
    return 1;
  }
  std::printf("simulation finalized %llu slots in %lld ms of *simulated* time "
              "(%llu messages, %llu bytes, no signatures anywhere)\n",
              static_cast<unsigned long long>(sim_cluster->instance(0).finalized_count()),
              static_cast<long long>(sim_cluster->simulation().now() / runtime::kMillisecond),
              static_cast<unsigned long long>(sim_cluster->simulation().trace().total_messages()),
              static_cast<unsigned long long>(sim_cluster->simulation().trace().total_bytes()));

  // 4. Same protocol, same seeds, two hosts: the chains agree block for
  //    block (the cross-runner equivalence the test suite enforces).
  std::vector<multishot::MultishotNode*> chains = cluster->shard_instances();
  for (auto* chain : sim_cluster->shard_instances()) chains.push_back(chain);
  const bool consistent = multishot::chains_prefix_consistent(chains);
  std::printf("real-time and simulated chains consistent: %s\n",
              consistent ? "yes" : "NO (bug!)");
  return consistent ? 0 : 1;
}
