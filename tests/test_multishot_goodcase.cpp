// Multi-shot TetraBFT in the good case (paper §6.1, Fig. 2): one block
// proposed, voted and notarized per message delay; a block finalizes when
// followed by three more notarized blocks; throughput is ~5x sequential
// single-shot.

#include <gtest/gtest.h>

#include "ms_cluster_helpers.hpp"

namespace tbft::test {
namespace {

using sim::kMillisecond;

TEST(MultishotGood, ChainGrowsAndStaysConsistent) {
  auto c = make_ms_cluster({});
  ASSERT_TRUE(c.run_until_finalized(10, 10 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(MultishotGood, OneBlockPerDeltaSteadyState) {
  // Fig. 2 timing: block for slot s is proposed at (s-1)*delta and
  // finalized at (s+4)*delta; successive finalizations are delta apart.
  // Striping the leader schedule (depth 4) keeps the same timeline.
  for (const std::uint32_t depth : {1u, 4u}) {
    MsClusterOptions opts;
    opts.max_slots = 24;
    opts.pipeline_depth = depth;
    auto c = make_ms_cluster(opts);
    ASSERT_TRUE(c.run_until_finalized(20, 10 * c.timeout())) << "depth " << depth;
    for (Slot s = 1; s <= 20; ++s) {
      const auto d = c.log->decision_of(0, s);
      ASSERT_TRUE(d.has_value()) << "depth " << depth << " slot " << s;
      EXPECT_EQ(d->at, static_cast<sim::SimTime>(s + 4) * opts.delta_actual)
          << "depth " << depth << " slot " << s;
    }
  }
}

TEST(MultishotGood, FinalityLagIsFiveDelays) {
  // A block proposed at t is finalized at t + 5 delta (notarizations of its
  // three successors plus its own, each one delay apart).
  MsClusterOptions opts;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(5, 10 * c.timeout()));
  const auto d1 = c.log->decision_of(0, 1);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->at, 5 * opts.delta_actual);
}

TEST(MultishotGood, RoundRobinLeadersProposeTheirOwnSlots) {
  MsClusterOptions opts;
  opts.max_slots = 12;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(8, 10 * c.timeout()));
  for (Slot s = 1; s <= 8; ++s) {
    const multishot::Block* b = c.nodes[0]->block_at(s);
    ASSERT_NE(b, nullptr) << "slot " << s;
    EXPECT_EQ(b->proposer, b->slot % opts.n) << "slot " << s;
  }
}

TEST(MultishotGood, ParentHashesFormAChain) {
  auto c = make_ms_cluster({});
  ASSERT_TRUE(c.run_until_finalized(8, 10 * c.timeout()));
  const multishot::MultishotNode* node = c.nodes[1];
  std::uint64_t parent = multishot::kGenesisHash;
  for (Slot s = 1; s <= node->finalized_count(); ++s) {
    const multishot::Block& b = *node->block_at(s);
    EXPECT_EQ(b.parent_hash, parent) << "slot " << b.slot;
    parent = b.hash();
  }
}

TEST(MultishotGood, SubmittedTransactionsGetFinalizedEverywhere) {
  // Definition 2 (Liveness): a transaction received by a well-behaved node
  // ends up in every well-behaved node's finalized chain.
  MsClusterOptions opts;
  opts.max_slots = 30;
  auto c = make_ms_cluster(opts);
  const std::vector<std::uint8_t> tx = {0xCA, 0xFE, 0xBA, 0xBE, 0x01};
  // Submit to every node: whichever leader proposes next will include it.
  for (auto* node : c.nodes) node->submit_tx(tx);
  ASSERT_TRUE(c.run_until_finalized(12, 20 * c.timeout()));
  for (auto* node : c.nodes) EXPECT_TRUE(node->tx_finalized(tx));
}

TEST(MultishotGood, ThroughputFiveTimesSequentialSingleShot) {
  // Pipelined: ~1 block/delta. Sequential single-shot: 1 decision/5 delta.
  MsClusterOptions opts;
  opts.max_slots = 40;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(30, 20 * c.timeout()));
  const auto d30 = c.log->decision_of(0, 30);
  ASSERT_TRUE(d30.has_value());
  const double pipelined_rate = 30.0 / static_cast<double>(d30->at);
  const double sequential_rate = 1.0 / (5.0 * static_cast<double>(opts.delta_actual));
  EXPECT_NEAR(pipelined_rate / sequential_rate, 5.0, 0.75);
}

TEST(MultishotGood, LargerClusterStillPipelines) {
  MsClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.max_slots = 16;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(10, 10 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  const auto d10 = c.log->decision_of(0, 10);
  EXPECT_EQ(d10->at, 14 * opts.delta_actual);  // (10+4) * delta
}

TEST(MultishotGood, NoViewChangeTrafficInGoodCase) {
  MsClusterOptions opts;
  opts.max_slots = 10;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(6, 10 * c.timeout()));
  const auto& by_type = c.sim->trace().messages_by_type();
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(multishot::MsType::ViewChange)), 0u);
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(multishot::MsType::Suggest)), 0u);
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(multishot::MsType::Proof)), 0u);
}

TEST(MultishotGood, OnlyProposalsAndVotesInGoodCase) {
  // §1: pipelined TetraBFT uses exactly 2 message types in the good case.
  MsClusterOptions opts;
  opts.max_slots = 10;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(6, 10 * c.timeout()));
  for (const auto& [tag, count] : c.sim->trace().messages_by_type()) {
    EXPECT_TRUE(tag == static_cast<std::uint8_t>(multishot::MsType::Proposal) ||
                tag == static_cast<std::uint8_t>(multishot::MsType::Vote))
        << "unexpected message type " << int(tag) << " x" << count;
  }
}

}  // namespace
}  // namespace tbft::test
