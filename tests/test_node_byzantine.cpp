// Byzantine-fault integration tests: agreement and termination must survive
// every f-bounded attacker we can throw through the real wire format.

#include <gtest/gtest.h>

#include "cluster_helpers.hpp"
#include "core/byzantine.hpp"

namespace tbft::test {
namespace {

constexpr Value kBadA{66601}, kBadB{66602};

TEST(Byzantine, EquivocatingLeaderCannotSplitDecision) {
  // Byzantine node 0 leads view 0 and proposes different values to each
  // half. No value reaches a vote-2 quorum, the view times out, and view 1
  // recovers with agreement intact.
  ClusterOptions opts;
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<core::EquivocatingLeaderNode>(cfg, kBadA, kBadB);
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
  const auto val = c.agreed_value();
  ASSERT_TRUE(val.has_value());
  EXPECT_EQ(*val, Value{101});  // view 1 leader's value
}

TEST(Byzantine, EquivocatingLeaderWithSevenNodes) {
  ClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<core::EquivocatingLeaderNode>(cfg, kBadA, kBadB);
    if (id == 6) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(Byzantine, UnsafeProposerMayWinWhenValueIsActuallySafe) {
  // Node 1 (leader of view 1) ignores Rule 1 and proposes a fixed bogus
  // value. With view 0 silent (node 0 crashed), no history constrains
  // values, so Rule 3 item 2a legitimately accepts any proposal; the forced
  // rejection path is exercised by HiddenDecisionForcesSameValueInLaterViews.
  ClusterOptions opts;
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    if (id == 1) return std::make_unique<core::UnsafeProposerNode>(cfg, kBadA);
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  // All values are safe in view 1 (nothing happened in view 0), so the
  // Byzantine value may legally be decided -- but agreement must hold.
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(Byzantine, HiddenDecisionForcesSameValueInLaterViews) {
  // The Lemma 8 end-to-end scenario: view 0 completes, but only node 0
  // observes the vote-4 quorum (the adversary suppresses all other vote-4
  // deliveries before GST). Node 0 decides value 100 -- a decision hidden
  // from everyone else, and a single Decide claim is below f+1 so no
  // catch-up applies. View 1's leader is a Byzantine proposer pushing a
  // different value; Rule 3 must reject it, and view 2's honest leader is
  // forced by Rule 1 to re-propose 100.
  const sim::SimTime gst = 2 * 9 * 10 * sim::kMillisecond;  // two timeouts
  ClusterOptions opts;
  opts.gst = gst;
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 1) return std::make_unique<core::UnsafeProposerNode>(cfg, kBadA);
    return nullptr;
  };
  // Pre-GST: drop phase-4 votes to everyone but node 0; everything else
  // flows at a constant 1ms.
  opts.adversary = [gst](const sim::Envelope& env,
                         sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    if (send_time < gst && !env.payload.empty() &&
        env.payload.front() == static_cast<std::uint8_t>(core::MsgType::Vote) &&
        env.payload.size() >= 2 && env.payload[1] == 4 && env.dst != 0) {
      return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
    }
    return sim::DeliveryDecision{.drop = false, .deliver_at = send_time + sim::kMillisecond};
  };
  auto c = make_cluster(opts);

  // Node 0 (honest leader of view 0) proposes 100 and decides alone.
  ASSERT_TRUE(c.sim->run_until_pred([&] { return c.tetra[0]->decision().has_value(); }, gst));
  EXPECT_EQ(c.tetra[0]->decision(), Value{100});
  EXPECT_FALSE(c.tetra[2]->decision().has_value());
  EXPECT_FALSE(c.tetra[3]->decision().has_value());

  // Everyone must converge on 100, never on the Byzantine value.
  ASSERT_TRUE(c.run_until_all_decided(gst + 40 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
  EXPECT_EQ(c.agreed_value(), Value{100});
  // The Byzantine proposal really was made and rejected: the decision came
  // in a view past 1.
  for (NodeId i : {2u, 3u}) EXPECT_GE(c.tetra[i]->current_view(), 2) << "node " << i;
}

TEST(Byzantine, LyingHistoryCannotBreakAgreement) {
  // Node 3 fabricates suggest/proof histories favoring a bogus value while
  // view 0's leader is silent; the single liar is below every blocking set,
  // so honest rules never act on its claims alone.
  ClusterOptions opts;
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    if (id == 3) return std::make_unique<core::LyingHistoryNode>(cfg, kBadA);
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
  EXPECT_EQ(c.agreed_value(), Value{101});
}

TEST(Byzantine, VoteEquivocatorCannotSplitAgreement) {
  ClusterOptions opts;
  opts.make_node = [](NodeId id,
                      const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 3) return std::make_unique<core::VoteEquivocatorNode>(cfg, kBadA);
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
  EXPECT_EQ(c.agreed_value(), Value{100});
}

TEST(Byzantine, JunkSpammerIsHarmless) {
  ClusterOptions opts;
  opts.make_node = [](NodeId id, const core::TetraConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 3) return std::make_unique<sim::RandomJunkNode>(sim::kMillisecond / 2);
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(30 * c.timeout()));
  EXPECT_EQ(c.agreed_value(), Value{100});
  // Junk was actually received and discarded.
  EXPECT_GT(c.sim->metrics().counter("core.malformed").value(), 0u);
}

TEST(Byzantine, SilentNonLeaderDoesNotSlowGoodCase) {
  ClusterOptions opts;
  opts.make_node = [](NodeId id, const core::TetraConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 3) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  for (NodeId i : tetra_ids(c)) {
    EXPECT_EQ(c.log->decision_of(i)->at, 5 * opts.delta_actual);
  }
}

TEST(Byzantine, FPlusOneDecideClaimsRequiredForAdoption) {
  // A single Byzantine "Decide" claim must not convince anyone: inject one
  // spoofed decide message through a custom node and verify nobody adopts.
  class FakeDecider final : public sim::ProtocolNode {
   public:
    void on_start() override {
      serde::Writer w;
      core::Decide{kBadA}.encode(w);
      ctx().broadcast(w.take());
    }
    void on_message(NodeId, const sim::Payload&) override {}
    void on_timer(sim::TimerId) override {}
  };
  ClusterOptions opts;
  opts.make_node = [](NodeId id, const core::TetraConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 3) return std::make_unique<FakeDecider>();
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  EXPECT_EQ(c.agreed_value(), Value{100});
}

}  // namespace
}  // namespace tbft::test
