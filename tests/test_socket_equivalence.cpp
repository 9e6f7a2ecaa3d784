// Three-transport equivalence (ISSUE 7): the same multishot workload, seeded
// identically, committed through the deterministic Simulation, the threaded
// shared-memory LocalRunner, AND a loopback-TCP build_socket() cluster yields
// identical finalized chains -- the proof that the socket transport carries
// everything the consensus cores need and perturbs nothing. Every socket
// message crossed a real TCP connection through the frame codec; only the
// process boundary separates this from a deployed cluster (and
// examples/socket_cluster.cpp removes that).
//
// Mirrors tests/test_local_runner.cpp's recipe: one tx per block, no
// forwarding, generous delta so no host ever view-changes, pre-start mempool
// seeding so the tx -> slot assignment is a pure function of the seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "tetrabft.hpp"

namespace tbft {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kTxCount = 24;  // -> tx-bearing slots 1..24

std::vector<std::uint8_t> tx_bytes(std::uint32_t j) {
  return {'e', 'q', 'v', static_cast<std::uint8_t>(j >> 8), static_cast<std::uint8_t>(j),
          0xA5, 0x5A, static_cast<std::uint8_t>(j * 7)};
}

ClusterBuilder equivalence_builder() {
  ClusterBuilder b;
  b.nodes(kNodes)
      .seed(7)
      .delta_bound(1 * kSecond)
      .sim_delta_actual(1 * kMillisecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)
      .forwarding(false);
  return b;
}

TEST(SocketEquivalence, SocketBackendCommitsIdenticalChainToSimAndLocal) {
  // --- Simulation (the reference) -------------------------------------------
  auto sim_cluster = equivalence_builder().build_sim();
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    ASSERT_TRUE(sim_cluster->submit(j % kNodes, tx_bytes(j)));
  }
  sim_cluster->start();
  ASSERT_TRUE(sim_cluster->wait_for(
      [&] {
        const auto chains = sim_cluster->shard_instances();
        return std::all_of(chains.begin(), chains.end(),
                           [](const auto* c) { return c->finalized_count() >= kTxCount; });
      },
      60 * kSecond));

  // --- LocalRunner (shared memory) ------------------------------------------
  auto local = equivalence_builder().build_local();
  std::map<NodeId, std::uint64_t> local_streams;  // guarded by the commit lock
  local->on_commit([&](const runtime::Commit& c) { local_streams[c.node] = c.stream; });
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    local->submit(j % kNodes, tx_bytes(j));
  }
  local->start();
  const auto finalized_all = [kTx = kTxCount](const std::map<NodeId, std::uint64_t>& m) {
    if (m.size() < kNodes) return false;
    return std::all_of(m.begin(), m.end(),
                       [kTx](const auto& kv) { return kv.second >= kTx; });
  };
  ASSERT_TRUE(local->wait_for([&] { return finalized_all(local_streams); }, 120 * kSecond));
  local->stop();

  // --- Loopback TCP -----------------------------------------------------------
  auto sockets = equivalence_builder().build_socket();
  std::map<NodeId, std::uint64_t> socket_streams;  // guarded by the commit lock
  sockets->on_commit(
      [&](const runtime::Commit& c) { socket_streams[c.node] = c.stream; });
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    sockets->submit(j % kNodes, tx_bytes(j));  // pre-start: seeds mempools inline
  }
  sockets->start();
  ASSERT_TRUE(
      sockets->wait_for([&] { return finalized_all(socket_streams); }, 120 * kSecond))
      << "socket cluster did not finalize all " << kTxCount << " tx slots in time";
  sockets->stop();

  // --- Identical finalized chains, all twelve observations ------------------
  std::vector<multishot::MultishotNode*> all_chains;
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&sim_cluster->instance(i));
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&local->instance(i));
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&sockets->instance(i));
  EXPECT_TRUE(multishot::chains_prefix_consistent(all_chains));

  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_GE(sockets->instance(i).finalized_count(), kTxCount);
  }
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    EXPECT_TRUE(sockets->instance(0).tx_finalized(tx_bytes(j)))
        << "socket cluster lost tx " << j;
  }
  // Per-slot byte equality against BOTH other hosts.
  for (Slot s = 1; s <= kTxCount; ++s) {
    const multishot::Block* sim_b = sim_cluster->instance(0).block_at(s);
    const multishot::Block* loc_b = local->instance(0).block_at(s);
    const multishot::Block* sock_b = sockets->instance(0).block_at(s);
    ASSERT_NE(sim_b, nullptr);
    ASSERT_NE(loc_b, nullptr);
    ASSERT_NE(sock_b, nullptr);
    EXPECT_EQ(sim_b->hash(), sock_b->hash()) << "slot " << s << " sim vs socket";
    EXPECT_EQ(loc_b->hash(), sock_b->hash()) << "slot " << s << " local vs socket";
  }

  // Transport health: every pair handshook, nothing was dropped or rejected,
  // and real frames moved in both directions on every host.
  for (NodeId i = 0; i < kNodes; ++i) {
    const runtime::NetStats& s = sockets->host(i).net_stats();
    EXPECT_GE(s.handshakes.load(), kNodes - 1) << "node " << i;
    EXPECT_GT(s.frames_rx.load(), 0u) << "node " << i;
    EXPECT_GT(s.frames_tx.load(), 0u) << "node " << i;
    EXPECT_EQ(s.queue_dropped.load(), 0u) << "node " << i;
    EXPECT_EQ(s.rejected_hello.load(), 0u) << "node " << i;
    EXPECT_EQ(s.rx_oversize.load(), 0u) << "node " << i;
  }
}

TEST(SocketEquivalence, StopIsIdempotentAndReplicaAccessIsGuarded) {
  auto sockets = equivalence_builder().build_socket();
  sockets->submit(0, tx_bytes(0));
  sockets->start();
  EXPECT_THROW((void)sockets->instance(0), std::logic_error);
  sockets->stop();
  sockets->stop();  // idempotent
  (void)sockets->instance(0);  // quiescent: safe now
}

TEST(SocketEquivalence, BuilderValidatesSocketKnobs) {
  EXPECT_THROW(ClusterBuilder{}.socket_backoff(0, 1 * kSecond), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_backoff(1 * kSecond, 1 * kMillisecond),
               std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_liveness(0, 1 * kSecond), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_liveness(1 * kSecond, 1 * kMillisecond),
               std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_queue(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_max_frame(16), std::invalid_argument);
  // A frame cap that cannot carry a full proposal batch is a config error
  // caught at build time, not a mysterious oversize-drop at runtime.
  EXPECT_THROW(
      ClusterBuilder{}.batching(64, 2u << 20).socket_max_frame(1u << 20).build_socket(),
      std::logic_error);
  EXPECT_THROW(ClusterBuilder{}.nodes(4).build_socket_node(4), std::invalid_argument);
}

}  // namespace
}  // namespace tbft
