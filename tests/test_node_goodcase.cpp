// Good-case behavior of single-shot TetraBFT: synchronous network, honest
// leader. The headline claim (paper §1, Table 1): a decision in exactly
// 5 message delays, via proposal -> vote-1 -> vote-2 -> vote-3 -> vote-4.

#include <gtest/gtest.h>

#include "cluster_helpers.hpp"
#include "core/messages.hpp"

namespace tbft::test {
namespace {

using sim::kMillisecond;

TEST(GoodCase, AllNodesDecideLeadersValue) {
  auto c = make_cluster({});
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  const auto val = c.agreed_value();
  ASSERT_TRUE(val.has_value());
  // Round-robin leader of view 0 is node 0, whose initial value is 100.
  EXPECT_EQ(*val, Value{100});
}

TEST(GoodCase, DecisionInExactlyFiveMessageDelays) {
  ClusterOptions opts;
  opts.delta_actual = 1 * kMillisecond;
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  // proposal, vote-1..vote-4: five network hops of delta each.
  for (NodeId i : tetra_ids(c)) {
    const auto d = c.log->decision_of(i);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->at, 5 * opts.delta_actual) << "node " << i;
  }
}

TEST(GoodCase, FiveDelaysHoldsForLargerClusters) {
  for (std::uint32_t n : {7u, 10u, 13u}) {
    ClusterOptions opts;
    opts.n = n;
    opts.f = (n - 1) / 3;
    auto c = make_cluster(opts);
    ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout())) << "n=" << n;
    for (NodeId i : tetra_ids(c)) {
      EXPECT_EQ(c.log->decision_of(i)->at, 5 * opts.delta_actual);
    }
    EXPECT_TRUE(c.log->agreement_holds());
  }
}

TEST(GoodCase, NoViewChangeMessagesInGoodCase) {
  auto c = make_cluster({});
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  const auto& by_type = c.sim->trace().messages_by_type();
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(core::MsgType::ViewChange)), 0u);
  // View 0 also needs no suggest/proof.
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(core::MsgType::Suggest)), 0u);
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(core::MsgType::Proof)), 0u);
}

TEST(GoodCase, ValidityAllSameInput) {
  // Definition 1 (Validity): all honest with the same input v decide v.
  ClusterOptions opts;
  opts.initial_value = [](NodeId) { return Value{42}; };
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  EXPECT_EQ(c.agreed_value(), Value{42});
}

TEST(GoodCase, QuadraticMessageComplexityPerView) {
  // O(n^2) communicated bits (Table 1): in the good case each node
  // broadcasts 4 votes and the leader 1 proposal => 5n(n-1) messages.
  for (std::uint32_t n : {4u, 7u, 10u}) {
    ClusterOptions opts;
    opts.n = n;
    opts.f = (n - 1) / 3;
    auto c = make_cluster(opts);
    ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
    c.sim->run_to_quiescence(c.sim->now() + 2 * opts.delta_bound);  // drain in-flight
    const auto expected = static_cast<std::uint64_t>(4 * n + 1) * (n - 1);
    EXPECT_EQ(c.sim->trace().total_messages(), expected) << "n=" << n;
  }
}

TEST(GoodCase, DecisionIsStablePastQuiescence) {
  auto c = make_cluster({});
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  const auto val = c.agreed_value();
  c.sim->run_to_quiescence(c.sim->now() + 20 * c.timeout());
  EXPECT_EQ(c.agreed_value(), val);
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(GoodCase, UniformJitteredDelaysStillDecideWithinFiveDelta) {
  ClusterOptions opts;
  opts.seed = 99;
  opts.delay_model = sim::DelayModel::Uniform;
  opts.delta_min = 250;  // 0.25 ms
  opts.delta_actual = 1 * kMillisecond;
  auto c = make_cluster(opts);
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  EXPECT_TRUE(c.log->agreement_holds());
  for (NodeId i : tetra_ids(c)) {
    EXPECT_LE(c.log->decision_of(i)->at, 5 * opts.delta_actual);
  }
}

TEST(GoodCase, PersistentStorageIsConstantAcrossRun) {
  auto c = make_cluster({});
  const auto before = c.tetra[0]->persistent_bytes();
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  EXPECT_EQ(c.tetra[0]->persistent_bytes(), before);
}

TEST(GoodCase, EveryNodeEndsInViewZero) {
  auto c = make_cluster({});
  ASSERT_TRUE(c.run_until_all_decided(10 * c.timeout()));
  for (NodeId i : tetra_ids(c)) EXPECT_EQ(c.tetra[i]->current_view(), 0);
}

}  // namespace
}  // namespace tbft::test
