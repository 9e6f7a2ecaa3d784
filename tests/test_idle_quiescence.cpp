// Idle-chain suppression (ROADMAP open item, DESIGN_PERF.md "Consensus
// state layer"): with max_slots = 0 a leader skips proposing when its
// mempool is empty and no slot is pending, and per-slot view timers go
// dormant instead of re-arming, so an idle network stops producing filler
// blocks -- and truly quiesces -- then resumes on new submissions.

#include <gtest/gtest.h>

#include "multishot/node.hpp"
#include "sim/runtime.hpp"
#include "workload/scenarios.hpp"

namespace tbft::test {
namespace {

using multishot::MultishotConfig;
using multishot::MultishotNode;

struct IdleRig {
  std::unique_ptr<sim::Simulation> sim;
  std::vector<MultishotNode*> nodes;
  MultishotConfig cfg;
};

IdleRig make_idle_rig(std::uint32_t n = 4, std::uint32_t depth = 1) {
  sim::SimConfig sc;
  sc.net.gst = 0;
  sc.net.delta_actual = 1 * sim::kMillisecond;
  sc.net.delta_bound = 10 * sim::kMillisecond;

  IdleRig rig;
  rig.cfg.n = n;
  rig.cfg.f = (n - 1) / 3;
  rig.cfg.max_slots = 0;  // unbounded chain: idle suppression active
  rig.cfg.pipeline_depth = depth;
  rig.sim = std::make_unique<sim::Simulation>(sc);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto node = std::make_unique<MultishotNode>(rig.cfg);
    rig.nodes.push_back(node.get());
    rig.sim->add_node(std::move(node));
  }
  rig.sim->start();
  return rig;
}

TEST(IdleQuiescence, IdleNetworkProducesNoFillerAndQuiesces) {
  auto rig = make_idle_rig();
  rig.sim->run_to_quiescence(5 * sim::kSecond);
  // True quiescence: the slot-1 timers fired once (at 9 delta), went
  // dormant, and nothing re-armed them -- no events remain anywhere.
  EXPECT_EQ(rig.sim->armed_timer_count(), 0u);
  for (const auto* node : rig.nodes) {
    EXPECT_EQ(node->finalized_count(), 0u);
  }
  // Not a single message crossed the wire: no proposals, no view changes.
  EXPECT_EQ(rig.sim->trace().messages().size(), 0u);
}

TEST(IdleQuiescence, ResumesOnSubmissionToTheFrontierLeader) {
  auto rig = make_idle_rig();
  rig.sim->run_to_quiescence(5 * sim::kSecond);
  ASSERT_EQ(rig.sim->trace().messages().size(), 0u);

  // Slot 1 is the frontier; its view-0 leader is node 1.
  const NodeId leader = rig.cfg.leader_of(1, 0);
  const std::vector<std::uint8_t> tx = {0x11, 0x22, 0x33};
  EXPECT_TRUE(rig.nodes[leader]->submit_tx(tx));

  rig.sim->run_to_quiescence(30 * sim::kSecond);
  for (const auto* node : rig.nodes) {
    EXPECT_TRUE(node->tx_finalized(tx));
  }
  // The pipeline ran just long enough to finalize the transaction block
  // (the filler suffix driving its depth-4 finality stays unfinalized,
  // give or take one pipelining race), then went idle again.
  const Slot len = rig.nodes[0]->finalized_count();
  EXPECT_GE(len, 1u);
  EXPECT_LE(len, 6u);
  const auto traffic = rig.sim->trace().messages().size();
  rig.sim->run_until(rig.sim->now() + 2 * sim::kSecond);
  EXPECT_EQ(rig.sim->trace().messages().size(), traffic);
  EXPECT_EQ(rig.nodes[0]->finalized_count(), len);
}

TEST(IdleQuiescence, ResumesViaForwardingWhenSubmitterIsNotLeader) {
  // Submitting to a node that does NOT lead the frontier slot used to cost
  // a ~9 delta view change (leadership had to rotate to the submitter).
  // With single-hop forwarding the submitter relays the request to the
  // frontier leader, which proposes ~1 delta later: no view change at all,
  // and commit lands well inside one view timeout.
  auto rig = make_idle_rig();
  rig.sim->run_to_quiescence(5 * sim::kSecond);

  const NodeId leader = rig.cfg.leader_of(1, 0);
  const NodeId submitter = (leader + 1) % rig.cfg.n;
  const std::vector<std::uint8_t> tx = {0xCA, 0xFE};
  const sim::SimTime submitted_at = rig.sim->now();
  EXPECT_TRUE(rig.nodes[submitter]->submit_tx(tx));

  const auto committed = [&] {
    for (const auto* node : rig.nodes) {
      if (!node->tx_finalized(tx)) return false;
    }
    return true;
  };
  EXPECT_TRUE(rig.sim->run_until_pred(committed, 30 * sim::kSecond));
  EXPECT_LT(rig.sim->now() - submitted_at, rig.cfg.view_timeout());

  const auto& by_type = rig.sim->trace().messages_by_type();
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(multishot::MsType::ViewChange)), 0u);
  const auto fwd = by_type.find(static_cast<std::uint8_t>(multishot::MsType::ForwardTx));
  ASSERT_NE(fwd, by_type.end());
  EXPECT_GE(fwd->second, 1u);
}

TEST(IdleQuiescence, PipelinedChainResumesAtEveryStripePosition) {
  // Depth 4: each resumption moves the parked frontier five slots on (the
  // transaction's block plus the slots that finalize it), so four rounds,
  // each submitted to the next node, park it at slots 1, 6, 11 and 16:
  // every stripe position. Nobody proposes the parked slot until its
  // leader holds work, so the relay must go to that leader. Aimed two
  // slots on, as on a moving chain, positions 3 and 4 handed the request
  // to the next stripe's leader, which cannot propose before the parked
  // slot: each waited out a view timeout and committed after 98 ms.
  auto rig = make_idle_rig(4, 4);
  const sim::SimTime delta = 1 * sim::kMillisecond;
  rig.sim->run_to_quiescence(5 * sim::kSecond);
  for (std::uint8_t round = 0; round < 4; ++round) {
    const NodeId submitter = round;
    const Slot parked = rig.nodes[submitter]->proposal_frontier();
    const std::vector<std::uint8_t> tx = {0xCA, round};
    const sim::SimTime submitted_at = rig.sim->now();
    ASSERT_TRUE(rig.nodes[submitter]->submit_tx(tx));
    const auto committed = [&] {
      for (const auto* node : rig.nodes) {
        if (!node->tx_finalized(tx)) return false;
      }
      return true;
    };
    ASSERT_TRUE(rig.sim->run_until_pred(committed, submitted_at + sim::kSecond));
    EXPECT_LE(rig.sim->now() - submitted_at, 8 * delta)
        << "parked at slot " << parked << ", stripe position " << (parked - 1) % 4 + 1;
    rig.sim->run_to_quiescence(rig.sim->now() + 5 * sim::kSecond);
  }
  const auto& by_type = rig.sim->trace().messages_by_type();
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(multishot::MsType::ViewChange)), 0u);
}

TEST(IdleQuiescence, ResumesViaViewChangeWhenRelayTargetIsSilent) {
  // The relay's fallback: the frontier leader is down, so the relayed copy
  // is lost. The submitter's re-armed timer forces a view change, leadership
  // rotates, and once the relay's hold expires the submitter's own copy
  // commits.
  auto rig = make_idle_rig();
  rig.sim->run_to_quiescence(5 * sim::kSecond);

  const NodeId leader = rig.cfg.leader_of(1, 0);
  rig.sim->crash_node(leader);
  const NodeId submitter = (leader + 1) % rig.cfg.n;
  const std::vector<std::uint8_t> tx = {0xCA, 0xFE};
  EXPECT_TRUE(rig.nodes[submitter]->submit_tx(tx));

  const auto committed = [&] {
    for (NodeId i = 0; i < rig.cfg.n; ++i) {
      if (i != leader && !rig.nodes[i]->tx_finalized(tx)) return false;
    }
    return true;
  };
  EXPECT_TRUE(rig.sim->run_until_pred(committed, 30 * sim::kSecond));
  EXPECT_EQ(rig.sim->metrics().counter("multishot.forward.sent").value(), 1u);
  const auto& by_type = rig.sim->trace().messages_by_type();
  EXPECT_GT(by_type.count(static_cast<std::uint8_t>(multishot::MsType::ViewChange)), 0u);
}

TEST(IdleQuiescence, LoadedScenarioQuiescesAfterDrainAndResumes) {
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.seed = 77;
  opts.load_duration = 100 * sim::kMillisecond;
  opts.rate_per_sec = 1000;

  workload::WorkloadRig rig = workload::make_rig(opts);
  rig.sim->start();
  const auto drained = [&] {
    return rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed();
  };
  ASSERT_TRUE(rig.sim->run_until_pred(drained, 60 * sim::kSecond));

  // After the drain the network quiesces by itself: no filler blocks keep
  // streaming, every timer goes dormant, the chain length freezes.
  rig.sim->run_to_quiescence(rig.sim->now() + 20 * sim::kSecond);
  EXPECT_EQ(rig.sim->armed_timer_count(), 0u);
  const Slot frozen_len = rig.nodes[0]->finalized_count();
  EXPECT_TRUE(rig.chains_consistent());

  // New submissions resume the pipeline and commit.
  const std::vector<std::uint8_t> tx = {0x99, 0x88, 0x77, 0x66};
  bool accepted = false;
  for (auto* node : rig.nodes) {
    if (node != nullptr) accepted = node->submit_tx(tx) || accepted;
  }
  ASSERT_TRUE(accepted);
  const auto resumed = [&] {
    for (const auto* node : rig.nodes) {
      if (node != nullptr && !node->tx_finalized(tx)) return false;
    }
    return true;
  };
  EXPECT_TRUE(rig.sim->run_until_pred(resumed, 30 * sim::kSecond));
  EXPECT_GT(rig.nodes[0]->finalized_count(), frozen_len);
  EXPECT_TRUE(rig.chains_consistent());
}

TEST(IdleQuiescence, BoundedChainsKeepSeedBehavior) {
  // max_slots != 0 disables suppression: the classic bounded run still
  // proposes filler immediately and finalizes without any submissions.
  sim::SimConfig sc;
  sc.net.delta_actual = 1 * sim::kMillisecond;
  sc.net.delta_bound = 10 * sim::kMillisecond;
  sim::Simulation sim(sc);
  MultishotConfig cfg;
  cfg.max_slots = 12;
  std::vector<MultishotNode*> nodes;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    auto node = std::make_unique<MultishotNode>(cfg);
    nodes.push_back(node.get());
    sim.add_node(std::move(node));
  }
  sim.start();
  const auto done = [&] {
    for (const auto* node : nodes) {
      if (node->finalized_count() < 8) return false;
    }
    return true;
  };
  EXPECT_TRUE(sim.run_until_pred(done, 10 * sim::kSecond));
}

}  // namespace
}  // namespace tbft::test
