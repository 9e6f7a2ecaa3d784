// Multi-shot view change (paper §6.2, Fig. 3): failed blocks abort, nodes
// exchange per-slot view-changes and suggest/proof messages, new leaders
// re-propose safe values, and the chain resumes -- consistently.

#include <gtest/gtest.h>

#include <algorithm>

#include "ms_cluster_helpers.hpp"

namespace tbft::test {
namespace {

using sim::kMillisecond;

/// Leader of slot 2 at view 0 (node 2) never proposes slot 2: the Fig. 3
/// failed-block scenario.
MsClusterOptions fig3_opts() {
  MsClusterOptions opts;
  opts.max_slots = 20;
  opts.make_node = [](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 2) {
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{2});
    }
    return nullptr;
  };
  return opts;
}

TEST(MultishotViewChange, FailedSlotRecoversAndChainContinues) {
  auto c = make_ms_cluster(fig3_opts());
  ASSERT_TRUE(c.run_until_finalized(8, 30 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(MultishotViewChange, AbortedSlotsAreBoundedByFinalityDepth) {
  // §6.2: "the number of aborted blocks is limited by the protocol's
  // finality latency, specifically to 5". When slot 2 fails, slots beyond
  // the pipeline window cannot even start, so the single view change only
  // exchanges suggest/proof messages for a handful of slots: the suggest
  // traffic is bounded by (aborted slots) x (n point-to-point sends).
  auto c = make_ms_cluster(fig3_opts());
  ASSERT_TRUE(c.run_until_finalized(6, 30 * c.timeout()));
  const auto& by_type = c.sim->trace().messages_by_type();
  const auto suggests = by_type.count(static_cast<std::uint8_t>(multishot::MsType::Suggest))
                            ? by_type.at(static_cast<std::uint8_t>(multishot::MsType::Suggest))
                            : 0;
  EXPECT_GT(suggests, 0u);  // the view change did happen
  // <= 6 aborted slots x n senders (each sends one suggest per slot).
  EXPECT_LE(suggests, static_cast<std::uint64_t>(6 * c.opts.n));
}

TEST(MultishotViewChange, ReProposedSlotsUseTheNewView) {
  auto c = make_ms_cluster(fig3_opts());
  ASSERT_TRUE(c.run_until_finalized(4, 30 * c.timeout()));
  // Slot 2's block must exist in every finalized chain, proposed by the
  // view-1 leader (node 3 = (2+1) % 4), not the silent node 2.
  for (auto* node : c.nodes) {
    ASSERT_GE(node->finalized_count(), 2u);
    const multishot::Block* b2 = node->block_at(2);
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(b2->slot, 2u);
    EXPECT_EQ(b2->proposer, 3u);
  }
}

TEST(MultishotViewChange, NotarizedButUnfinalizedSlotMayBeReplaced) {
  // Slot 1 notarizes at view 0 but cannot finalize while slot 2 is stuck;
  // after the view change it is re-proposed (possibly with the same or a
  // new block). Consistency must hold regardless.
  auto c = make_ms_cluster(fig3_opts());
  ASSERT_TRUE(c.run_until_finalized(5, 30 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  // Slot 1's finalized proposer: view-1 leader of slot 1 is node 2... but
  // node 2 is only silent for slot 2, so it may propose slot 1 at view 1.
  ASSERT_NE(c.nodes[0]->block_at(1), nullptr);
  EXPECT_EQ(c.nodes[0]->block_at(1)->slot, 1u);
}

TEST(MultishotViewChange, RecoveryIsOneTimeoutThenFourDelays) {
  // Fig. 3 at delta = Delta/10 (§6.3): slot 1's timer starts at 0 and the
  // first view change goes out at 9*Delta. The view-change quorum lands 1
  // delay later, and suggest/proof, proposal and vote 3 more, so the first
  // new notarization (slot 2, re-proposed in view 1) is 4 delays after the
  // view change. Slot 1 finalizes once slots 2..4 are notarized on top of
  // it, 2 delays after that.
  MsClusterOptions opts = fig3_opts();
  opts.delta_actual = 1 * kMillisecond;
  auto c = make_ms_cluster(opts);
  for (auto* node : c.nodes) node->set_record_timeline(true);
  const auto view_change_sent = [&c] {
    return c.sim->trace().messages_by_type().contains(
        static_cast<std::uint8_t>(multishot::MsType::ViewChange));
  };
  c.sim->run_until(c.timeout() - 1);
  EXPECT_FALSE(view_change_sent());
  c.sim->run_until(c.timeout());
  EXPECT_TRUE(view_change_sent());

  ASSERT_TRUE(c.run_until_finalized(1, 30 * c.timeout()));
  std::pair<Slot, sim::SimTime> first_new{0, sim::kNever};
  for (const auto& [slot, at] : c.nodes[0]->notarized_at()) {
    if (at > c.timeout() && at < first_new.second) first_new = {slot, at};
  }
  EXPECT_EQ(first_new.first, 2u);
  EXPECT_EQ(first_new.second, c.timeout() + 4 * opts.delta_actual);
  const auto d1 = c.log->decision_of(0, 1);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->at, c.timeout() + 6 * opts.delta_actual);
}

TEST(MultishotViewChange, TwoFailedLeadersInSequence) {
  MsClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.max_slots = 24;
  opts.make_node = [](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 2) {
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{2});
    }
    if (id == 5) {
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{5, 12});
    }
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(14, 60 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

TEST(MultishotViewChange, EquivocatingProposerCannotForkTheChain) {
  MsClusterOptions opts;
  opts.max_slots = 16;
  opts.make_node = [](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 1) return std::make_unique<multishot::EquivocatingProposer>(cfg);
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(8, 60 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_TRUE(c.log->agreement_holds());
}

/// Byzantine leader: its view-0 proposal for slot 2 carries one byte more
/// than any honest leader builds (max_payload_bytes()).
class OversizeProposer : public multishot::MultishotNode {
 public:
  explicit OversizeProposer(multishot::MultishotConfig cfg) : MultishotNode(cfg) {}

 protected:
  void do_propose(Slot s, View v, const multishot::Block& block) override {
    if (s != 2 || v != 0) {
      MultishotNode::do_propose(s, v, block);
      return;
    }
    multishot::Block big = block;
    big.payload.resize(static_cast<std::size_t>(config().max_payload_bytes()) + 1, 0xB1);
    broadcast_ms(multishot::MsProposal{s, v, big});
  }
};

TEST(MultishotViewChange, OversizeProposalIsRefusedAndTheChainRecovers) {
  // Stored, the block could win notarization and then overflow every
  // peer's frame limit inside range-sync chunks. Refused on receipt, its
  // view gets no votes and the slot recovers through a view change.
  MsClusterOptions opts;
  opts.max_slots = 20;
  opts.make_node = [](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 2) return std::make_unique<OversizeProposer>(cfg);
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  c.sim->run_until(c.timeout() / 2);
  for (const auto* node : c.nodes) {
    EXPECT_FALSE(node->chain().notarized(2).has_value());
    EXPECT_EQ(node->finalized_count(), 0u);
  }
  // Every replica refused it, the proposer's own loopback included.
  EXPECT_EQ(c.sim->metrics().counter("multishot.proposal.oversize").value(), 4u);

  ASSERT_TRUE(c.run_until_finalized(8, 30 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_GT(c.sim->metrics().counter("multishot.viewchange.sent").value(), 0u);
  const std::uint64_t bound = c.nodes[0]->config().max_payload_bytes();
  for (const auto* node : c.nodes) {
    ASSERT_NE(node->block_at(2), nullptr);
    EXPECT_LE(node->block_at(2)->payload.size(), bound);
  }
}

TEST(MultishotViewChange, FullySilentNodeStallsEveryFourthSlotOnly) {
  // A crashed node leads every n-th slot; each of its slots needs one view
  // change, the rest pipeline normally. The chain still reaches 10 blocks.
  MsClusterOptions opts;
  opts.max_slots = 20;
  opts.make_node = [](NodeId id,
                      const multishot::MultishotConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 3) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(10, 100 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

TEST(MultishotViewChange, StragglerCatchesUpViaViewChangeReplies) {
  // Node 3 is partitioned away until GST while the others finalize blocks.
  // After GST its view-change probes are answered with finalized-block
  // chunks (MsSyncChunk) and it adopts the finalized prefix.
  const sim::SimTime gst = 400 * kMillisecond;
  MsClusterOptions opts;
  opts.gst = gst;
  opts.max_slots = 10;
  opts.adversary = [gst](const sim::Envelope& env,
                         sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    if (send_time < gst && (env.dst == 3 || env.src == 3)) {
      return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
    }
    return sim::DeliveryDecision{.drop = false, .deliver_at = send_time + kMillisecond};
  };
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return c.nodes[0]->finalized_count() >= 5; }, gst));
  EXPECT_EQ(c.nodes[3]->finalized_count(), 0u);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return c.nodes[3]->finalized_count() >= 5; }, gst + 50 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

/// n = 4 with node 0 crashed from the start: a transaction submitted at
/// node 2 while node 0 leads its proposal frontier is relayed to node 0 and
/// held at node 2 for forward_retry() = 2 view timeouts. The view change
/// that moves node 0's slot to a live leader must take that copy back, so
/// every live replica finalizes the transaction within one view timeout
/// plus a few delta.
void expect_relay_to_crashed_leader_commits_after_one_view_change(std::uint32_t depth) {
  MsClusterOptions opts;
  opts.pipeline_depth = depth;
  opts.max_slots = 40;
  opts.make_node = [](NodeId id,
                      const multishot::MultishotConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  multishot::MultishotNode& origin = *c.nodes[2];
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        const Slot f = origin.proposal_frontier();
        return origin.leader_of(f, origin.probe_slot(f).view) == 0;
      },
      c.timeout()));
  const std::vector<std::uint8_t> tx{0x7E, 0x01, 0x02};
  const sim::SimTime submitted = c.sim->now();
  ASSERT_TRUE(origin.submit_tx(tx));
  EXPECT_EQ(c.sim->metrics().counter("multishot.forward.sent").value(), 1u);

  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        for (const auto* node : c.nodes) {
          if (node != nullptr && !node->tx_finalized(tx)) return false;
        }
        return true;
      },
      submitted + 10 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_EQ(c.sim->metrics().counter("multishot.forward.released").value(), 1u);
  const sim::SimTime commit_after = c.sim->now() - submitted;
  EXPECT_LE(commit_after, c.timeout() + 5 * opts.delta_bound);
  EXPECT_LT(commit_after, 2 * c.timeout());  // forward_retry()
}

TEST(MultishotViewChange, RelayToCrashedLeaderCommitsAfterOneViewChange) {
  // The held copy is re-relayed to the slot's view-1 leader and turns
  // batchable at node 2. Without the take-back it committed after 277 ms.
  expect_relay_to_crashed_leader_commits_after_one_view_change(1);
}

TEST(MultishotViewChange, RelayToCrashedLeaderCommitsAfterOneViewChangeAtDepth4) {
  // Depth 4: the view change moves node 0's whole stripe at once. Without
  // the take-back it committed after 206 ms.
  expect_relay_to_crashed_leader_commits_after_one_view_change(4);
}

TEST(MultishotViewChange, TakeBackGivesTheMovedSlotsTheirRoomBack) {
  // Depth 4, node 0 crashed from the start; node 1 leads slots 1-4 and
  // 17-20, node 2 slots 5-8 and 21-24, node 0 slots 13-16, and view 1
  // hands each stripe to the next stripe's leader. In the first window
  // node 2 counts all four nodes as submitters, so it aims a share of
  // 16 / 4 = 4 requests at a slot. The instant slot 12's proposal reaches
  // it, slot 15 is the first foreign slot its relays can catch: 8 requests
  // fill 15 and 16, both relayed to node 0. The view change moves 13-16 to
  // node 1 and takes the 8 back; re-aimed, they give their old counts back
  // and fill 15 and 16 again, now node 1's. 17 more then fill node 1's
  // 17-20 and keep one for node 2's own slot 21: 24 relays to node 1 in
  // all. Had the counts stayed on 15 and 16, the taken-back requests would
  // have filled 17 and 18 and only 8 of the new ones gone to node 1.
  MsClusterOptions opts;
  opts.pipeline_depth = 4;
  opts.max_slots = 60;
  opts.make_node = [](NodeId id,
                      const multishot::MultishotConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  RelayLog relays;
  opts.adversary = relays.hook();
  auto c = make_ms_cluster(opts);
  multishot::MultishotNode& origin = *c.nodes[2];
  const auto relays_to = [&](NodeId dst) {
    const std::vector<NodeId> to = relays.from(2);
    return static_cast<std::size_t>(std::count(to.begin(), to.end(), dst));
  };
  const std::uint32_t share = origin.config().max_batch_txs / origin.config().n;
  ASSERT_EQ(share, 4u);
  ASSERT_TRUE(
      c.sim->run_until_pred([&] { return origin.probe_slot(12).proposal_seen; }, c.timeout()));
  ASSERT_FALSE(origin.probe_slot(13).proposal_seen);
  std::vector<std::vector<std::uint8_t>> txs;
  const auto submit = [&](std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      txs.push_back({0x7B, static_cast<std::uint8_t>(txs.size())});
      ASSERT_TRUE(origin.submit_tx(txs.back()));
    }
  };
  submit(2 * share);
  EXPECT_EQ(relays_to(0), 2 * share);

  auto& released = c.sim->metrics().counter("multishot.forward.released");
  ASSERT_TRUE(c.sim->run_until_pred([&] { return released.value() != 0; }, 3 * c.timeout()));
  EXPECT_EQ(released.value(), 2 * share);
  EXPECT_EQ(relays_to(1), 2 * share);
  submit(4 * share + 1);
  EXPECT_EQ(relays_to(1), 6 * share);

  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        for (const auto* node : c.nodes) {
          if (node == nullptr) continue;
          for (const auto& tx : txs) {
            if (!node->tx_finalized(tx)) return false;
          }
        }
        return true;
      },
      c.sim->now() + 10 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

class MultishotRandomized : public testing::TestWithParam<int> {};

TEST_P(MultishotRandomized, ConsistencyUnderRandomFaultsAndAsynchrony) {
  // Crash-style faults under random asynchrony: consistency AND liveness.
  // (Sustained proposal equivocation combined with pre-GST message loss can
  // stall liveness -- see EquivocationPlusAsynchronyIsSafeButMayStall --
  // so the equivocator runs in the synchronous regime in the dedicated test
  // above.)
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 7);
  MsClusterOptions opts;
  opts.seed = rng.next();
  opts.n = rng.bernoulli(0.5) ? 4 : 7;
  opts.f = (opts.n - 1) / 3;
  opts.gst = static_cast<sim::SimTime>(rng.uniform(0, 300)) * kMillisecond;
  opts.max_slots = 14;
  const NodeId byz = static_cast<NodeId>(rng.index(opts.n));
  const bool selective = rng.bernoulli(0.5);
  opts.make_node = [byz, selective](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id != byz) return nullptr;
    if (selective) {
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{2, 5, 9});
    }
    return std::make_unique<sim::SilentNode>();
  };
  auto c = make_ms_cluster(opts);
  const bool done = c.run_until_finalized(8, opts.gst + 120 * c.timeout());
  EXPECT_TRUE(done) << "liveness failed: seed=" << GetParam() << " n=" << opts.n
                    << " byz=" << byz << " selective=" << selective;
  EXPECT_TRUE(c.chains_consistent()) << "consistency failed: seed=" << GetParam();
  EXPECT_TRUE(c.log->agreement_holds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultishotRandomized, testing::Range(0, 25));

class MultishotEquivocation : public testing::TestWithParam<int> {};

TEST_P(MultishotEquivocation, EquivocationPlusAsynchronyIsSafeButMayStall) {
  // Reproduction finding: a proposer that equivocates while
  // the network is still asynchronous can split notarization perception;
  // implicit vote-2/3 records can then pin an orphaned block through Rule 1
  // and liveness may stall. Safety is unaffected: finalized chains must
  // stay consistent in every run, whether or not progress was made.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7351 + 11);
  MsClusterOptions opts;
  opts.seed = rng.next();
  opts.n = 4;
  opts.f = 1;
  opts.gst = static_cast<sim::SimTime>(rng.uniform(0, 300)) * kMillisecond;
  opts.max_slots = 14;
  const NodeId byz = static_cast<NodeId>(rng.index(opts.n));
  opts.make_node = [byz](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id != byz) return nullptr;
    return std::make_unique<multishot::EquivocatingProposer>(cfg);
  };
  auto c = make_ms_cluster(opts);
  (void)c.run_until_finalized(8, opts.gst + 40 * c.timeout());
  EXPECT_TRUE(c.chains_consistent()) << "consistency failed: seed=" << GetParam();
  EXPECT_TRUE(c.log->agreement_holds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultishotEquivocation, testing::Range(0, 15));

}  // namespace
}  // namespace tbft::test
