// View-change behavior of single-shot TetraBFT (paper §3.2 step "view
// change" and the 9*Delta timeout analysis): silent leaders, timer-driven
// view-change initiation, f+1 echo, n-f switch, and recovery latency.

#include <gtest/gtest.h>

#include "cluster_helpers.hpp"
#include "core/messages.hpp"

namespace tbft::test {
namespace {

using sim::kMillisecond;

ClusterOptions silent_leader_opts() {
  ClusterOptions opts;
  // Node 0 leads view 0 and stays silent; view 1's leader (node 1) decides.
  opts.make_node = [](NodeId id, const core::TetraConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  return opts;
}

TEST(ViewChange, SilentLeaderTriggersRecoveryAndDecision) {
  auto c = make_cluster(silent_leader_opts());
  ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
  const auto val = c.agreed_value();
  ASSERT_TRUE(val.has_value());
  // View 1's leader is node 1, initial value 101.
  EXPECT_EQ(*val, Value{101});
  for (NodeId i : tetra_ids(c)) EXPECT_EQ(c.tetra[i]->current_view(), 1);
}

TEST(ViewChange, ViewChangeMessagesAreSent) {
  auto c = make_cluster(silent_leader_opts());
  ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
  const auto& by_type = c.sim->trace().messages_by_type();
  EXPECT_GT(by_type.at(static_cast<std::uint8_t>(core::MsgType::ViewChange)), 0u);
  EXPECT_GT(by_type.at(static_cast<std::uint8_t>(core::MsgType::Suggest)), 0u);
  EXPECT_GT(by_type.at(static_cast<std::uint8_t>(core::MsgType::Proof)), 0u);
}

TEST(ViewChange, RecoveryLatencyIsTimeoutPlusSevenDelays) {
  // All honest nodes time out at 9*Delta together, exchange view-change
  // (1 delay), then suggest/proof (1), proposal (1), votes (4): decision at
  // timeout + 7 message delays when delta_actual = delta.
  // Optimistic responsiveness (§1.2): the 7 delays scale with the actual
  // delay, whatever the bound.
  for (const sim::SimTime delta : {kMillisecond / 10, 1 * kMillisecond}) {
    ClusterOptions opts = silent_leader_opts();
    opts.delta_actual = delta;
    auto c = make_cluster(opts);
    ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
    for (NodeId i : tetra_ids(c)) {
      const auto d = c.log->decision_of(i);
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->at, c.timeout() + 7 * delta) << "node " << i << " delta " << delta;
    }
  }
}

TEST(ViewChange, CascadeThroughTwoSilentLeaders) {
  ClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.make_node = [](NodeId id, const core::TetraConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0 || id == 1) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  // Views 0 and 1 fail; view 2's leader (node 2, value 102) decides.
  EXPECT_EQ(c.agreed_value(), Value{102});
  for (NodeId i : tetra_ids(c)) EXPECT_EQ(c.tetra[i]->current_view(), 2);
}

TEST(ViewChange, SecondViewDecisionAt7DeltaAfterEntry) {
  // Responsiveness within the new view: once view 1 starts, the decision
  // takes 7 actual delays (suggest/proof + proposal + 4 votes ... suggest
  // and proof travel in parallel = 1 delay, so 1+1+4 = 6 delays after the
  // view-change broadcast, which itself is 1 delay).
  ClusterOptions opts = silent_leader_opts();
  opts.delta_actual = 1 * kMillisecond;
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
  // Timer fires at 9Delta_bound; then vc(1) + suggest/proof(1) + proposal(1)
  // + 4 votes = 7 delta_actual.
  const auto d = c.log->decision_of(1);
  EXPECT_EQ(d->at - c.timeout(), 7 * opts.delta_actual);
}

TEST(ViewChange, BlockingSetEchoPullsLaggardsForward) {
  // Nodes that never timed out still join a view change once f+1 peers ask
  // for it. Here we delay node 3's timer artificially by giving it a much
  // larger timeout multiple; it must still reach view 1 via the echo rule.
  ClusterOptions opts = silent_leader_opts();
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    if (id == 3) {
      core::TetraConfig slow = cfg;
      slow.timeout_delta_multiple = 90;  // would time out 10x later
      return std::make_unique<core::TetraNode>(slow);
    }
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
  EXPECT_EQ(c.tetra[3]->current_view(), 1);
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(ViewChange, NoRegressionToLowerViews) {
  auto c = make_cluster(silent_leader_opts());
  ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
  c.sim->run_to_quiescence(c.sim->now() + 5 * c.timeout());
  for (NodeId i : tetra_ids(c)) EXPECT_GE(c.tetra[i]->current_view(), 1);
}

TEST(ViewChange, SixDeltaIsTheInViewBudgetAtWorstCaseDelay) {
  // Ablation of the 9*Delta analysis (paper §3.2) at the slowest admissible
  // network (delta = Delta). All honest timers fire together; the view
  // change takes 1 delay, then view 1 needs 6 more (suggest/proof,
  // proposal, four votes): the paper's 6*Delta in-view budget. A 5*Delta
  // timer aborts every view before its vote-4 quorum lands -- safe, but a
  // livelock. From 6*Delta up, view 1 decides at (multiple + 7)*Delta. The
  // paper's 9 adds 2*Delta of view-entry spread after asynchrony, which a
  // simultaneous timeout does not need, and 1 of margin.
  for (const std::uint32_t multiple : {5u, 6u, 9u}) {
    ClusterOptions opts = silent_leader_opts();
    opts.timeout_delta_multiple = multiple;
    opts.delta_actual = opts.delta_bound;
    auto c = make_cluster(opts);
    const bool decided = c.run_until_all_decided(40 * c.timeout());
    EXPECT_TRUE(c.log->agreement_holds()) << multiple;  // safety is unaffected
    if (multiple < 6) {
      EXPECT_FALSE(decided) << multiple;
      EXPECT_EQ(c.decided_count(), 0u) << multiple;
      // Views keep churning.
      for (NodeId i : tetra_ids(c)) EXPECT_GT(c.tetra[i]->current_view(), 5) << multiple;
      continue;
    }
    ASSERT_TRUE(decided) << multiple;
    for (NodeId i : tetra_ids(c)) {
      EXPECT_EQ(c.tetra[i]->current_view(), 1) << multiple;
      EXPECT_EQ(c.log->decision_of(i)->at, (multiple + 7) * opts.delta_bound)
          << multiple;
    }
  }
}

}  // namespace
}  // namespace tbft::test
