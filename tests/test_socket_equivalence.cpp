// Three-transport equivalence (ISSUE 7): the same multishot workload, seeded
// identically, committed through the deterministic Simulation, the threaded
// shared-memory LocalRunner, AND a loopback-TCP build_socket() cluster yields
// identical finalized chains -- the proof that the socket transport carries
// everything the consensus cores need and perturbs nothing. Every socket
// message crossed a real TCP connection through the frame codec; only the
// process boundary separates this from a deployed cluster (and
// examples/socket_cluster.cpp removes that).
//
// Mirrors tests/test_local_runner.cpp's recipe (equivalence_helpers.hpp):
// one tx per block, a generous delta so no host ever view-changes, and
// every transaction seeded pre-start at the slot-1 leader, so the tx ->
// slot assignment is a pure function of the seeding order.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "equivalence_helpers.hpp"
#include "multishot/messages.hpp"
#include "net/frame.hpp"
#include "tetrabft.hpp"

namespace tbft {
namespace {

using runtime::kSecond;
using test::EqCommits;
using test::eq_tx;
using test::equivalence_builder;
using test::seed_eq_txs;

constexpr std::uint32_t kNodes = test::kEqNodes;
constexpr std::uint32_t kTxCount = test::kEqTxs;

TEST(SocketEquivalence, SocketBackendCommitsIdenticalChainToSimAndLocal) {
  // --- Simulation (the reference) -------------------------------------------
  EqCommits sim_commits;
  auto sim_cluster = equivalence_builder().build_sim();
  sim_commits.attach(*sim_cluster);
  ASSERT_TRUE(seed_eq_txs(*sim_cluster));
  sim_cluster->start();
  ASSERT_TRUE(sim_cluster->wait_for([&] { return sim_commits.complete(); }, 60 * kSecond));

  // --- LocalRunner (shared memory) ------------------------------------------
  EqCommits local_commits;  // outlives the cluster's threads
  auto local = equivalence_builder().build_local();
  local_commits.attach(*local);
  seed_eq_txs(*local);
  local->start();
  ASSERT_TRUE(local->wait_for([&] { return local_commits.complete(); }, 120 * kSecond));
  local->stop();

  // --- Loopback TCP -----------------------------------------------------------
  EqCommits socket_commits;  // outlives the cluster's threads
  auto sockets = equivalence_builder().build_socket();
  socket_commits.attach(*sockets);
  seed_eq_txs(*sockets);  // pre-start: seeds the mempool inline
  sockets->start();
  ASSERT_TRUE(sockets->wait_for([&] { return socket_commits.complete(); }, 120 * kSecond))
      << "socket cluster did not finalize all " << kTxCount << " transactions in time";
  sockets->stop();

  // --- Identical finalized chains, all twelve observations ------------------
  std::vector<multishot::MultishotNode*> all_chains;
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&sim_cluster->instance(i));
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&local->instance(i));
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&sockets->instance(i));
  EXPECT_TRUE(multishot::chains_prefix_consistent(all_chains));

  // Every replica on every host committed each transaction at the same slot.
  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_EQ(sim_commits.slot[i], sim_commits.slot[0]) << "sim node " << i;
    EXPECT_EQ(local_commits.slot[i], sim_commits.slot[0]) << "local node " << i;
    EXPECT_EQ(socket_commits.slot[i], sim_commits.slot[0]) << "socket node " << i;
  }
  // Per-slot byte equality against BOTH other hosts, up to the last
  // transaction.
  for (Slot s = 1; s <= sim_commits.last_tx_slot(); ++s) {
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
  sockets->submit(0, eq_tx(0));
  sockets->start();
  EXPECT_THROW((void)sockets->instance(0), std::logic_error);
  sockets->stop();
  sockets->stop();  // idempotent
  (void)sockets->instance(0);  // quiescent: safe now
}

// The socket frame limit is derived, not configured: it must carry the
// largest message an honest replica sends, a full range-sync chunk of
// blocks at max_payload_bytes(). The adaptive sim-* shape (~2 MiB chunks)
// overflowed the old fixed 1 MiB limit, and batching(64, 2 MiB) was refused.
TEST(SocketEquivalence, DerivedFrameLimitCarriesAFullSyncChunk) {
  const std::vector<ClusterBuilder> shapes = {
      ClusterBuilder{}.batching(16, 8192).adaptive_batching(256),
      ClusterBuilder{}.batching(64, 2u << 20),
  };
  for (const ClusterBuilder& b : shapes) {
    const std::uint64_t payload = b.node_config().max_payload_bytes();
    multishot::MsSyncChunk chunk{.frontier = 100, .tail_first = 1, .start = 1, .blocks = {}};
    for (Slot s = 1; s <= multishot::MsSyncChunk::kMaxBlocksPerChunk; ++s) {
      chunk.blocks.push_back(multishot::Block{
          s, 0x1234, 2, std::vector<std::uint8_t>(static_cast<std::size_t>(payload), 0x7E)});
    }
    const std::vector<std::uint8_t> body = multishot::encode_ms(chunk);
    EXPECT_EQ(body.size(), multishot::MsSyncChunk::max_encoded_bytes(payload));
    EXPECT_GT(body.size(), std::size_t{1} << 20) << "both shapes outgrow the 1 MiB default";

    std::vector<std::uint8_t> frame(net::kFrameHeaderBytes + body.size());
    net::put_frame_header(frame.data(), net::FrameKind::kData,
                          static_cast<std::uint32_t>(body.size()));
    std::copy(body.begin(), body.end(), frame.begin() + net::kFrameHeaderBytes);
    net::FrameDecoder decoder(net::FrameDecoder::Limits{b.max_frame_bytes()});
    std::size_t frames = 0;
    EXPECT_TRUE(decoder.feed(frame, [&](net::FrameKind, std::uint16_t,
                                        std::vector<std::uint8_t>&& got) {
      ++frames;
      EXPECT_EQ(got, body);
    }));
    EXPECT_EQ(frames, 1u);
    EXPECT_EQ(decoder.counters().dropped_oversize, 0u);
    // The fixed default the limit replaced would poison the connection.
    net::FrameDecoder fixed;
    EXPECT_FALSE(fixed.feed(frame, [](net::FrameKind, std::uint16_t,
                                      std::vector<std::uint8_t>&&) {}));
    EXPECT_NO_THROW((void)b.build_socket());
  }
  // Small batches keep the default limit.
  EXPECT_EQ(ClusterBuilder{}.max_frame_bytes(), std::size_t{1} << 20);
  EXPECT_THROW(ClusterBuilder{}.nodes(4).build_socket_node(4), std::invalid_argument);
}
}  // namespace
}  // namespace tbft
