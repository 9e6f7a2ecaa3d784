// Cross-runner equivalence (ISSUE 5): the same multishot workload, seeded
// identically, committed once through the deterministic Simulation and once
// through the real-time threaded LocalRunner, yields identical finalized
// chains -- the proof that the consensus cores are host-independent and
// that the runtime API boundary (runtime/host.hpp) carries everything the
// protocol needs. Plus the sim-side determinism re-check (commit sinks do
// not perturb traces) and the facade's configuration/ordering errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "equivalence_helpers.hpp"
#include "sim/adversary.hpp"
#include "tetrabft.hpp"

namespace tbft {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;
using test::EqCommits;
using test::eq_tx;
using test::equivalence_builder;
using test::seed_eq_txs;

constexpr std::uint32_t kNodes = test::kEqNodes;
constexpr std::uint32_t kTxCount = test::kEqTxs;

TEST(LocalRunner, CommitsIdenticalChainToSimulation) {
  // --- Simulation side -----------------------------------------------------
  EqCommits sim_commits;
  auto sim_cluster = equivalence_builder().build_sim();
  sim_commits.attach(*sim_cluster);
  ASSERT_TRUE(seed_eq_txs(*sim_cluster));
  sim_cluster->start();
  ASSERT_TRUE(sim_cluster->wait_for([&] { return sim_commits.complete(); }, 60 * kSecond));

  // --- LocalRunner side ----------------------------------------------------
  EqCommits local_commits;  // outlives the cluster's threads
  auto local = equivalence_builder().build_local();
  local_commits.attach(*local);
  seed_eq_txs(*local);
  local->start();
  const bool all_done =
      local->wait_for([&] { return local_commits.complete(); }, 120 * kSecond);
  local->stop();
  ASSERT_TRUE(all_done) << "LocalRunner did not finalize all " << kTxCount
                        << " transactions in time";

  // --- Identical finalized chains ------------------------------------------
  // Definition 2 across *both* runs at once: every pair among the 8 observed
  // chains must agree block-for-block on the common prefix (prefix digests
  // below any compacted tail).
  std::vector<multishot::MultishotNode*> all_chains;
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&sim_cluster->instance(i));
  for (NodeId i = 0; i < kNodes; ++i) all_chains.push_back(&local->instance(i));
  EXPECT_TRUE(multishot::chains_prefix_consistent(all_chains));

  // Every replica under both hosts committed each transaction at the same
  // slot, and every slot up to the last transaction carries byte-identical
  // blocks.
  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_EQ(local_commits.slot[i], sim_commits.slot[0]) << "node " << i;
    EXPECT_EQ(sim_commits.slot[i], sim_commits.slot[0]) << "node " << i;
  }
  for (Slot s = 1; s <= sim_commits.last_tx_slot(); ++s) {
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
  EqCommits commits;  // outlives the cluster's threads
  auto local = equivalence_builder().build_local();
  local->runner().set_clock_skew(1, 50 * kMillisecond, 0.0);
  local->runner().set_clock_skew(2, -30 * kMillisecond, 1e-4);
  local->runner().set_clock_skew(3, 0, -1e-4);

  commits.attach(*local);
  seed_eq_txs(*local);
  local->start();
  const bool all_done = local->wait_for([&] { return commits.complete(); }, 120 * kSecond);
  local->stop();
  ASSERT_TRUE(all_done) << "skewed cluster did not finalize every transaction in time";

  std::vector<multishot::MultishotNode*> chains;
  for (NodeId i = 0; i < kNodes; ++i) chains.push_back(&local->instance(i));
  EXPECT_TRUE(multishot::chains_prefix_consistent(chains));
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    EXPECT_TRUE(local->instance(0).tx_finalized(eq_tx(j))) << "lost tx " << j;
  }
}

TEST(LocalRunner, StopIsIdempotentAndStopsQuiescentCluster) {
  auto local = equivalence_builder().build_local();
  local->submit(0, eq_tx(0));
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
    EXPECT_TRUE(seed_eq_txs(*cluster));
    cluster->start();
    EXPECT_TRUE(cluster->wait_for(
        [&] { return cluster->instance(0).tx_finalized(eq_tx(kTxCount - 1)); },
        60 * kSecond));
    return cluster->simulation().trace().digest();
  };

  CountingSink sink;
  const std::uint64_t plain_a = run(false, nullptr);
  const std::uint64_t plain_b = run(false, nullptr);
  const std::uint64_t observed = run(true, &sink);
  EXPECT_EQ(plain_a, plain_b);
  EXPECT_EQ(plain_a, observed);
  // Every node publishes every finalized slot, each transaction's among them.
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
  EXPECT_THROW((void)ClusterBuilder{}.nodes(3).faults(1).node_config(), std::invalid_argument);
  EXPECT_THROW((void)ClusterBuilder{}.nodes(0).node_config(), std::invalid_argument);
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
  EXPECT_TRUE(port.submit(eq_tx(0)));
  EXPECT_EQ(cluster->instance(1).mempool().size(), 1u);
}

}  // namespace
}  // namespace tbft
