// Cross-runner equivalence (ISSUE 5): the same multishot workload, seeded
// identically, committed once through the deterministic Simulation and once
// through the real-time threaded LocalRunner, yields identical finalized
// chains -- the proof that the consensus cores are host-independent and
// that the runtime API boundary (runtime/host.hpp) carries everything the
// protocol needs. Plus the sim-side determinism re-check (commit sinks do
// not perturb traces) and the facade's configuration/ordering errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "sim/adversary.hpp"
#include "tetrabft.hpp"

namespace tbft {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kTxCount = 24;  // -> tx-bearing slots 1..24

/// Unique, deterministic transaction bytes for tx j.
std::vector<std::uint8_t> tx_bytes(std::uint32_t j) {
  return {'e', 'q', 'v', static_cast<std::uint8_t>(j >> 8), static_cast<std::uint8_t>(j),
          0xA5, 0x5A, static_cast<std::uint8_t>(j * 7)};
}

/// One block per transaction (max_batch_txs = 1) and no relaying keeps the
/// tx -> slot assignment a pure function of the seeding order: node j%4
/// proposes its seeds FIFO at the slots it leads, identically under any
/// host. delta_bound is generous so the real-time runner never view-changes
/// even under TSan scheduling.
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

/// Run a sim cluster until every replica finalized `target` slots.
bool run_until_all_finalized(Cluster& sim_cluster, Slot target) {
  return sim_cluster.wait_for(
      [&] {
        const auto chains = sim_cluster.shard_instances();
        return std::all_of(chains.begin(), chains.end(),
                           [target](const auto* c) { return c->finalized_count() >= target; });
      },
      60 * kSecond);
}

TEST(LocalRunner, CommitsIdenticalChainToSimulation) {
  // --- Simulation side -----------------------------------------------------
  auto sim_cluster = equivalence_builder().build_sim();
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    ASSERT_TRUE(sim_cluster->submit(j % kNodes, tx_bytes(j)));
  }
  sim_cluster->start();
  ASSERT_TRUE(run_until_all_finalized(*sim_cluster, kTxCount));

  // --- LocalRunner side ----------------------------------------------------
  auto local = equivalence_builder().build_local();
  std::map<NodeId, std::uint64_t> last_stream;  // guarded by the cluster's commit lock
  local->on_commit([&](const runtime::Commit& c) { last_stream[c.node] = c.stream; });
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    local->submit(j % kNodes, tx_bytes(j));  // pre-start: seeds mempools
  }
  local->start();
  const bool all_done = local->wait_for(
      [&] {
        if (last_stream.size() < kNodes) return false;
        return std::all_of(last_stream.begin(), last_stream.end(),
                           [](const auto& kv) { return kv.second >= kTxCount; });
      },
      120 * kSecond);
  local->stop();
  ASSERT_TRUE(all_done) << "LocalRunner did not finalize all " << kTxCount
                        << " transaction slots in time";

  // --- Identical finalized chains ------------------------------------------
  // Definition 2 across *both* runs at once: every pair among the 8 observed
  // chains must agree block-for-block on the common prefix (prefix digests
  // below any compacted tail).
  std::vector<multishot::MultishotNode*> all_chains;
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&sim_cluster->instance(i));
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&local->instance(i));
  EXPECT_TRUE(multishot::chains_prefix_consistent(all_chains));

  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_GE(sim_cluster->instance(i).finalized_count(), kTxCount);
    EXPECT_GE(local->instance(i).finalized_count(), kTxCount);
  }
  // Every transaction is committed under both hosts, and the tx-bearing
  // slots carry byte-identical blocks.
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    const auto tx = tx_bytes(j);
    EXPECT_TRUE(sim_cluster->instance(0).tx_finalized(tx)) << "sim lost tx " << j;
    EXPECT_TRUE(local->instance(0).tx_finalized(tx)) << "runner lost tx " << j;
  }
  for (Slot s = 1; s <= kTxCount; ++s) {
    const multishot::Block* a = sim_cluster->instance(0).block_at(s);
    const multishot::Block* b = local->instance(0).block_at(s);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->hash(), b->hash()) << "slot " << s << " diverged across hosts";
  }
}

// Clock skew (chaos satellite): nodes observing offset + drifting clocks --
// ppm-scale drift and tens-of-ms offsets, well inside the 9-Delta timeout
// headroom -- must still commit every transaction and stay prefix-consistent.
// The protocol only ever uses *relative* delays, so bounded skew shifts
// timers without breaking consensus; this is the threaded-runner proof.
TEST(LocalRunner, ClockSkewedNodesStayConsistentAndLive) {
  auto local = equivalence_builder().build_local();
  local->runner().set_clock_skew(1, 50 * kMillisecond, 0.0);
  local->runner().set_clock_skew(2, -30 * kMillisecond, 1e-4);
  local->runner().set_clock_skew(3, 0, -1e-4);

  std::map<NodeId, std::uint64_t> last_stream;
  local->on_commit([&](const runtime::Commit& c) { last_stream[c.node] = c.stream; });
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    local->submit(j % kNodes, tx_bytes(j));
  }
  local->start();
  const bool all_done = local->wait_for(
      [&] {
        if (last_stream.size() < kNodes) return false;
        return std::all_of(last_stream.begin(), last_stream.end(),
                           [](const auto& kv) { return kv.second >= kTxCount; });
      },
      120 * kSecond);
  local->stop();
  ASSERT_TRUE(all_done) << "skewed cluster did not finalize all slots in time";

  std::vector<multishot::MultishotNode*> chains;
  for (NodeId i = 0; i < kNodes; ++i) chains.push_back(&local->instance(i));
  EXPECT_TRUE(multishot::chains_prefix_consistent(chains));
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    EXPECT_TRUE(local->instance(0).tx_finalized(tx_bytes(j))) << "lost tx " << j;
  }
}

TEST(LocalRunner, StopIsIdempotentAndStopsQuiescentCluster) {
  auto local = equivalence_builder().build_local();
  local->submit(0, tx_bytes(0));
  local->start();
  EXPECT_TRUE(local->runner().running());
  local->stop();
  EXPECT_FALSE(local->runner().running());
  local->stop();  // idempotent
}

// Sim-side determinism re-check after the namespace move: equal seeds yield
// byte-identical traces, and subscribing a CommitSink must not perturb the
// schedule (it observes, it does not participate).
TEST(RuntimeApi, CommitSinksDoNotPerturbSimTraces) {
  struct CountingSink final : runtime::CommitSink {
    void on_commit(const runtime::Commit& c) override {
      ++commits;
      last_stream = c.stream;
      payload_bytes += c.payload.size();
    }
    std::uint64_t commits{0};
    std::uint64_t last_stream{0};
    std::size_t payload_bytes{0};
  };

  const auto run = [](bool with_sink, CountingSink* sink) {
    auto cluster = equivalence_builder().build_sim();
    if (with_sink) cluster->simulation().add_commit_sink(*sink);
    for (std::uint32_t j = 0; j < kTxCount; ++j) {
      EXPECT_TRUE(cluster->submit(j % kNodes, tx_bytes(j)));
    }
    cluster->start();
    EXPECT_TRUE(run_until_all_finalized(*cluster, kTxCount));
    return cluster->simulation().trace().digest();
  };

  CountingSink sink;
  const std::uint64_t plain_a = run(false, nullptr);
  const std::uint64_t plain_b = run(false, nullptr);
  const std::uint64_t observed = run(true, &sink);
  EXPECT_EQ(plain_a, plain_b);
  EXPECT_EQ(plain_a, observed);
  // Every node publishes every finalized slot: 4 nodes x >= 24 tx slots.
  EXPECT_GE(sink.commits, static_cast<std::uint64_t>(kNodes) * kTxCount);
  EXPECT_GE(sink.last_stream, 1u);
  EXPECT_GT(sink.payload_bytes, 0u);  // multishot commits carry block payloads
}

// The facade / runtime ordering contract (ISSUE satellite): adding a
// protocol node after a client actor would silently renumber the clients;
// it must fail loudly instead.
TEST(RuntimeApi, AddNodeAfterClientThrowsClearError) {
  sim::Simulation simulation{sim::SimConfig{}};
  simulation.add_client(std::make_unique<sim::SilentNode>());
  try {
    simulation.add_node(std::make_unique<sim::SilentNode>());
    FAIL() << "add_node after add_client must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("before the first client"), std::string::npos)
        << "error should tell the user the required ordering, got: " << e.what();
  }
}

TEST(RuntimeApi, BuilderRejectsInvalidConfigurations) {
  EXPECT_THROW(ClusterBuilder{}.nodes(3).faults(1).node_config(), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.nodes(0).node_config(), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.delta_bound(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.batching(0, 1024), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.mempool(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.storage_tail(0), std::invalid_argument);
  // n = 4 derives f = 1 and passes; an explicit f = 0 is honored, not
  // treated as "derive".
  EXPECT_EQ(ClusterBuilder{}.nodes(4).node_config().f, 1u);
  EXPECT_EQ(ClusterBuilder{}.nodes(4).faults(0).node_config().f, 0u);
}

TEST(RuntimeApi, SimPortsAreTheWorkloadSubmitBoundary) {
  auto cluster = equivalence_builder().build_sim();
  workload::SubmitPort& port = cluster->port(1);
  EXPECT_TRUE(port.submit(tx_bytes(0)));
  EXPECT_EQ(cluster->instance(1).mempool().size(), 1u);
}

}  // namespace
}  // namespace tbft
