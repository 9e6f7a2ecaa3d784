// Partial-synchrony behavior: safety during asynchrony, optimistic
// responsiveness after GST (paper §1.2: all well-behaved nodes decide within
// ~7 actual delays of view entry once the network is synchronous), and
// randomized property sweeps where agreement must hold for every seed.

#include <gtest/gtest.h>

#include "cluster_helpers.hpp"
#include "core/byzantine.hpp"

namespace tbft::test {
namespace {

using sim::kMillisecond;

TEST(Asynchrony, DecidesAfterGstDespiteEarlyChaos) {
  ClusterOptions opts;
  opts.gst = 300 * kMillisecond;  // several timeouts of lossy chaos
  opts.seed = 7;
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(opts.gst + 30 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(Asynchrony, PartitionUntilGstThenRecover) {
  ClusterOptions opts;
  opts.gst = 250 * kMillisecond;
  opts.adversary = sim::make_partition_until_gst({0, 1}, opts.gst);
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(opts.gst + 30 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(Asynchrony, NoDecisionPossibleDuringTotalPartition) {
  // With every cross-node message dropped, no quorum can ever form.
  ClusterOptions opts;
  opts.gst = sim::kNever;
  opts.adversary = [](const sim::Envelope&, sim::SimTime) {
    return std::optional<sim::DeliveryDecision>{
        sim::DeliveryDecision{.drop = true, .deliver_at = 0}};
  };
  auto c = make_cluster(opts);
  EXPECT_FALSE(c.run_until_all_decided(20 * c.timeout()));
  EXPECT_EQ(c.decided_count(), 0u);
}

TEST(Asynchrony, ResponsivenessDecisionTracksActualDelay) {
  // Optimistic responsiveness: with GST = 0 and a fast network
  // (delta << Delta), decision time scales with delta, not Delta.
  for (sim::SimTime delta : {100, 500, 2000}) {  // microseconds
    ClusterOptions opts;
    opts.delta_actual = delta;
    opts.delta_bound = 10 * kMillisecond;
    auto c = make_cluster(opts);
    ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
    for (NodeId i : tetra_ids(c)) {
      EXPECT_EQ(c.log->decision_of(i)->at, 5 * delta);
    }
  }
}

TEST(Asynchrony, PostGstViewDecidesWithinSevenActualDelays) {
  // The paper's responsiveness bound: after a view change post-GST, the new
  // view completes in at most 7 delta. Silent leader in view 0; measure the
  // tail latency of the view-1 decision relative to the timer expiry.
  ClusterOptions opts;
  opts.delta_actual = 1 * kMillisecond;
  opts.delta_bound = 20 * kMillisecond;  // conservative Delta, 20x delta
  opts.make_node = [](NodeId id, const core::TetraConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) return std::make_unique<sim::SilentNode>();
    return nullptr;
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(20 * c.timeout()));
  for (NodeId i : tetra_ids(c)) {
    const auto d = c.log->decision_of(i);
    EXPECT_LE(d->at - c.timeout(), 7 * opts.delta_actual) << "node " << i;
  }
}

TEST(Asynchrony, StragglerAdoptsDecisionViaDecideClaims) {
  // Nodes 0..2 decide during asynchrony; node 3 is cut off until GST. After
  // GST its view-change probe is answered by f+1 Decide claims.
  const sim::SimTime gst = 200 * kMillisecond;
  ClusterOptions opts;
  opts.gst = gst;
  opts.adversary = [gst](const sim::Envelope& env,
                         sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    if (send_time < gst && (env.dst == 3 || env.src == 3)) {
      return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
    }
    return sim::DeliveryDecision{.drop = false, .deliver_at = send_time + kMillisecond};
  };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.sim->run_until_pred([&] { return c.decided_count() >= 3; }, gst));
  EXPECT_FALSE(c.tetra[3]->decision().has_value());
  ASSERT_TRUE(c.run_until_all_decided(gst + 30 * c.timeout()));
  EXPECT_EQ(c.agreed_value(), Value{100});
}

class RandomizedAgreement : public testing::TestWithParam<int> {};

TEST_P(RandomizedAgreement, AgreementAndTerminationUnderRandomSchedules) {
  // For every seed: random GST, random lossy pre-GST network, one random
  // Byzantine node type. Agreement must always hold; termination must hold
  // once GST passes.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761 + 99);
  ClusterOptions opts;
  opts.seed = rng.next();
  opts.n = rng.bernoulli(0.5) ? 4 : 7;
  opts.f = (opts.n - 1) / 3;
  opts.gst = static_cast<sim::SimTime>(rng.uniform(0, 400)) * kMillisecond;

  const auto byz_kind = rng.uniform(0, 4);
  const NodeId byz_id = static_cast<NodeId>(rng.index(opts.n));
  opts.make_node = [byz_kind, byz_id](
                       NodeId id,
                       const core::TetraConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id != byz_id) return nullptr;
    switch (byz_kind) {
      case 0: return std::make_unique<sim::SilentNode>();
      case 1: return std::make_unique<core::EquivocatingLeaderNode>(cfg, Value{901}, Value{902});
      case 2: return std::make_unique<core::UnsafeProposerNode>(cfg, Value{903});
      case 3: return std::make_unique<core::LyingHistoryNode>(cfg, Value{904});
      default: return std::make_unique<core::VoteEquivocatorNode>(cfg, Value{905});
    }
  };
  auto c = make_cluster(opts);
  const bool done = c.run_until_all_decided(opts.gst + 60 * c.timeout());
  EXPECT_TRUE(done) << "termination failed: seed=" << GetParam() << " n=" << opts.n
                    << " byz_kind=" << byz_kind << " byz_id=" << byz_id;
  EXPECT_TRUE(c.log->agreement_holds()) << "agreement failed: seed=" << GetParam();
  // Storage stays constant regardless of how many views were needed.
  for (NodeId i : tetra_ids(c)) {
    EXPECT_LE(c.tetra[i]->persistent_bytes(), 256u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedAgreement, testing::Range(0, 40));

}  // namespace
}  // namespace tbft::test
