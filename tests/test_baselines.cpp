// Baseline protocols (Table 1 rows): good-case latency in message delays,
// view-change recovery, agreement, responsiveness behavior, and the
// communication/storage complexity shapes the paper contrasts TetraBFT
// against.

#include <gtest/gtest.h>

#include "baselines/it_hotstuff.hpp"
#include "baselines/it_hotstuff_blog.hpp"
#include "baselines/pbft.hpp"
#include "sim/adversary.hpp"

namespace tbft::baselines {
namespace {

using sim::kMillisecond;

struct BaseClusterOptions {
  std::uint32_t n{4};
  std::uint32_t f{1};
  sim::SimTime delta_bound{10 * kMillisecond};
  sim::SimTime delta_actual{1 * kMillisecond};
  std::uint64_t seed{1};
  std::vector<NodeId> silent{};  // indexes replaced by SilentNode
  bool pbft_unbounded{false};
};

template <class Node>
struct BaseCluster {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<sim::CommitLog> log;
  std::vector<Node*> nodes;
  BaseClusterOptions opts;

  [[nodiscard]] sim::SimTime timeout(const BaselineConfig& cfg) const {
    return cfg.view_timeout();
  }
  [[nodiscard]] bool all_decided() const {
    for (auto* n : nodes) {
      if (n != nullptr && !n->decision()) return false;
    }
    return true;
  }
};

template <class Node>
BaseCluster<Node> make_base_cluster(BaseClusterOptions opts) {
  sim::SimConfig sc;
  sc.seed = opts.seed;
  sc.net.gst = 0;
  sc.net.delta_bound = opts.delta_bound;
  sc.net.delta_actual = opts.delta_actual;
  sc.net.delta_min = opts.delta_actual;

  BaseCluster<Node> c;
  c.opts = opts;
  c.sim = std::make_unique<sim::Simulation>(sc);
  c.log = std::make_unique<sim::CommitLog>();
  c.sim->add_commit_sink(*c.log);
  for (NodeId i = 0; i < opts.n; ++i) {
    BaselineConfig cfg;
    cfg.n = opts.n;
    cfg.f = opts.f;
    cfg.delta_bound = opts.delta_bound;
    cfg.initial_value = Value{100 + i};
    const bool silent =
        std::find(opts.silent.begin(), opts.silent.end(), i) != opts.silent.end();
    if (silent) {
      c.nodes.push_back(nullptr);
      c.sim->add_node(std::make_unique<sim::SilentNode>());
    } else {
      std::unique_ptr<Node> node;
      if constexpr (std::is_same_v<Node, PbftNode>) {
        node = std::make_unique<Node>(cfg, opts.pbft_unbounded);
      } else {
        node = std::make_unique<Node>(cfg);
      }
      c.nodes.push_back(node.get());
      c.sim->add_node(std::move(node));
    }
  }
  c.sim->start();
  return c;
}

template <class Node>
sim::SimTime good_case_decision_time(std::uint32_t n = 4) {
  BaseClusterOptions opts;
  opts.n = n;
  opts.f = (n - 1) / 3;
  auto c = make_base_cluster<Node>(opts);
  const bool done = c.sim->run_until_pred([&] { return c.all_decided(); }, 10 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_TRUE(c.log->agreement_holds());
  return c.log->decision_of(1)->at;
}

// ---------------------------------------------------------------- good case

TEST(Baselines, ItHotStuffGoodCaseIsSixDelays) {
  EXPECT_EQ(good_case_decision_time<ItHotStuffNode>(), 6 * kMillisecond);
}

TEST(Baselines, ItHotStuffBlogGoodCaseIsFourDelays) {
  EXPECT_EQ(good_case_decision_time<ItHotStuffBlogNode>(), 4 * kMillisecond);
}

TEST(Baselines, PbftGoodCaseIsThreeDelays) {
  EXPECT_EQ(good_case_decision_time<PbftNode>(), 3 * kMillisecond);
}

TEST(Baselines, GoodCaseLatencyIndependentOfClusterSize) {
  for (std::uint32_t n : {7u, 10u}) {
    EXPECT_EQ(good_case_decision_time<ItHotStuffNode>(n), 6 * kMillisecond);
    EXPECT_EQ(good_case_decision_time<PbftNode>(n), 3 * kMillisecond);
  }
}

// -------------------------------------------------------------- view change

template <class Node>
sim::SimTime silent_leader_decision_time(BaseClusterOptions opts = {}) {
  opts.silent = {0};  // view-0 leader crashed
  auto c = make_base_cluster<Node>(opts);
  const bool done = c.sim->run_until_pred([&] { return c.all_decided(); }, 60 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_TRUE(c.log->agreement_holds());
  return c.log->decision_of(1)->at;
}

TEST(Baselines, ItHotStuffViewChangeIsNineDelaysPastTimeout) {
  // vc(1) + request(2) + status(3) + proposal(4) + echo..lock(5..9).
  BaselineConfig cfg;
  const auto t = silent_leader_decision_time<ItHotStuffNode>();
  EXPECT_EQ(t, cfg.view_timeout() + 9 * kMillisecond);
}

TEST(Baselines, PbftViewChangeIsFiveDelaysPastTimeout) {
  // vc(1) + ack(2) + new-view/pre-prepare(3) + prepare(4) + commit(5). The
  // paper's Table 1 counts 7 by also counting the request trigger and a
  // separate new-view hop; the measured hop count and the convention are
  // both reported by bench_table1.
  BaselineConfig cfg;
  const auto t = silent_leader_decision_time<PbftNode>();
  EXPECT_EQ(t, cfg.view_timeout() + 5 * kMillisecond);
}

TEST(Baselines, BlogViewChangePaysTheDeltaWait) {
  // Non-responsive: the new leader waits 2*Delta before proposing, so the
  // wall-clock recovery is timeout + 1 delta (vc) + 1 delta (suggest,
  // overlapped by the wait) ... + 2*Delta + 4 delta (in-view phases).
  BaselineConfig cfg;
  const auto t = silent_leader_decision_time<ItHotStuffBlogNode>();
  EXPECT_EQ(t, cfg.view_timeout() + 1 * kMillisecond + 2 * cfg.delta_bound + 4 * kMillisecond);
}

TEST(Baselines, ResponsiveProtocolsRecoverAtNetworkSpeed) {
  // Shrink the actual delay 4x: responsive recovery shrinks with it, the
  // non-responsive one barely moves (dominated by 2*Delta).
  BaseClusterOptions fast;
  fast.delta_actual = 250;  // 0.25 ms, Delta stays 10ms
  BaselineConfig cfg;

  const auto it_fast = silent_leader_decision_time<ItHotStuffNode>(fast);
  EXPECT_EQ(it_fast, cfg.view_timeout() + 9 * fast.delta_actual);

  const auto blog_fast = silent_leader_decision_time<ItHotStuffBlogNode>(fast);
  EXPECT_GE(blog_fast, cfg.view_timeout() + 2 * cfg.delta_bound);
}

// ----------------------------------------------------- complexity signatures

/// Drives a view change *after* the prepare phase completed: commits are
/// suppressed until GST, so every node times out holding a full prepared
/// certificate -- the state whose O(n) voter list PBFT must ship.
template <class Node>
double avg_viewchange_message_bytes(std::uint32_t n, std::uint8_t vc_tag,
                                    std::uint8_t commit_tag) {
  const sim::SimTime gst = 150 * kMillisecond;  // past the first timeout
  sim::SimConfig sc;
  sc.net.gst = gst;
  sc.net.delta_bound = 10 * kMillisecond;
  sc.net.delta_actual = 1 * kMillisecond;
  sc.net.delta_min = 1 * kMillisecond;

  sim::Simulation simulation(sc);
  simulation.network().set_adversary(
      [gst, commit_tag](const sim::Envelope& env,
                        sim::SimTime at) -> std::optional<sim::DeliveryDecision> {
        if (at < gst && !env.payload.empty() && env.payload.front() == commit_tag) {
          return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
        }
        return sim::DeliveryDecision{.drop = false, .deliver_at = at + kMillisecond};
      });

  std::vector<Node*> nodes;
  for (NodeId i = 0; i < n; ++i) {
    BaselineConfig cfg;
    cfg.n = n;
    cfg.f = (n - 1) / 3;
    cfg.initial_value = Value{100 + i};
    auto node = std::make_unique<Node>(cfg);
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }
  simulation.start();
  simulation.run_until_pred(
      [&] {
        return std::all_of(nodes.begin(), nodes.end(),
                           [](auto* nd) { return nd->decision().has_value(); });
      },
      gst + 120 * sim::kSecond);

  const auto& bytes = simulation.trace().bytes_by_type();
  const auto& counts = simulation.trace().messages_by_type();
  if (counts.find(vc_tag) == counts.end()) return 0.0;
  return static_cast<double>(bytes.at(vc_tag)) / static_cast<double>(counts.at(vc_tag));
}

TEST(Baselines, PbftViewChangeMessagesGrowLinearlyWithN) {
  // The O(n^3) signature: each PBFT view-change message carries an O(n)
  // voter list, and n of them are broadcast to n receivers. IT-HS (and
  // TetraBFT) view-change/status messages stay constant-size.
  const double pbft4 = avg_viewchange_message_bytes<PbftNode>(
      4, static_cast<std::uint8_t>(PbftMsg::ViewChange),
      static_cast<std::uint8_t>(PbftMsg::Commit));
  const double pbft31 = avg_viewchange_message_bytes<PbftNode>(
      31, static_cast<std::uint8_t>(PbftMsg::ViewChange),
      static_cast<std::uint8_t>(PbftMsg::Commit));
  const double iths4 = avg_viewchange_message_bytes<ItHotStuffNode>(
      4, static_cast<std::uint8_t>(ItMsg::Status),
      static_cast<std::uint8_t>(ItMsg::Phase));
  const double iths16 = avg_viewchange_message_bytes<ItHotStuffNode>(
      16, static_cast<std::uint8_t>(ItMsg::Status),
      static_cast<std::uint8_t>(ItMsg::Phase));

  EXPECT_GT(pbft31, pbft4 * 2.0);      // linear growth in message size
  EXPECT_NEAR(iths16, iths4, 1.0);     // constant-size status messages
}

TEST(Baselines, PbftUnboundedStorageGrows) {
  BaseClusterOptions bounded_opts;
  auto bounded = make_base_cluster<PbftNode>(bounded_opts);
  bounded.sim->run_until_pred([&] { return bounded.all_decided(); }, sim::kSecond);

  BaseClusterOptions unbounded_opts;
  unbounded_opts.pbft_unbounded = true;
  auto unbounded = make_base_cluster<PbftNode>(unbounded_opts);
  unbounded.sim->run_until_pred([&] { return unbounded.all_decided(); }, sim::kSecond);

  EXPECT_LE(bounded.nodes[1]->persistent_bytes(), 128u);
  EXPECT_GT(unbounded.nodes[1]->persistent_bytes(), bounded.nodes[1]->persistent_bytes());
}

// ------------------------------------------------------------------ safety

TEST(Baselines, AllBaselinesAgreeUnderSilentFault) {
  {
    BaseClusterOptions opts;
    opts.silent = {3};
    auto c = make_base_cluster<ItHotStuffNode>(opts);
    ASSERT_TRUE(c.sim->run_until_pred([&] { return c.all_decided(); }, 60 * sim::kSecond));
    EXPECT_TRUE(c.log->agreement_holds());
  }
  {
    BaseClusterOptions opts;
    opts.silent = {3};
    auto c = make_base_cluster<ItHotStuffBlogNode>(opts);
    ASSERT_TRUE(c.sim->run_until_pred([&] { return c.all_decided(); }, 60 * sim::kSecond));
    EXPECT_TRUE(c.log->agreement_holds());
  }
  {
    BaseClusterOptions opts;
    opts.silent = {3};
    auto c = make_base_cluster<PbftNode>(opts);
    ASSERT_TRUE(c.sim->run_until_pred([&] { return c.all_decided(); }, 60 * sim::kSecond));
    EXPECT_TRUE(c.log->agreement_holds());
  }
}

TEST(Baselines, TwoSilentLeadersWithSevenNodes) {
  BaseClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.silent = {0, 1};
  auto c = make_base_cluster<ItHotStuffNode>(opts);
  ASSERT_TRUE(c.sim->run_until_pred([&] { return c.all_decided(); }, 120 * sim::kSecond));
  EXPECT_TRUE(c.log->agreement_holds());
  for (auto* n : c.nodes) {
    if (n != nullptr) {
      EXPECT_EQ(n->current_view(), 2);
    }
  }
}

TEST(Baselines, DecidedValueSurvivesViewChangeItHotStuff) {
  // Node 0 decides in view 0; vote traffic to others is dropped before GST;
  // later views must stick to the decided value (lock-based safety).
  const sim::SimTime gst = 500 * kMillisecond;
  sim::SimConfig sc;
  sc.net.gst = gst;
  sc.net.delta_bound = 10 * kMillisecond;
  sc.net.delta_actual = 1 * kMillisecond;

  sim::Simulation simulation(sc);
  sim::CommitLog log;
  simulation.add_commit_sink(log);
  simulation.network().set_adversary(
      [gst](const sim::Envelope& env, sim::SimTime at) -> std::optional<sim::DeliveryDecision> {
        // Suppress lock-phase votes to everyone but node 0 during asynchrony.
        if (at < gst && !env.payload.empty() &&
            env.payload.front() == static_cast<std::uint8_t>(ItMsg::Phase) &&
            env.payload.size() >= 2 && env.payload[1] == ItHotStuffNode::kLock &&
            env.dst != 0) {
          return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
        }
        return sim::DeliveryDecision{.drop = false, .deliver_at = at + kMillisecond};
      });

  std::vector<ItHotStuffNode*> nodes;
  for (NodeId i = 0; i < 4; ++i) {
    BaselineConfig cfg;
    cfg.initial_value = Value{100 + i};
    auto node = std::make_unique<ItHotStuffNode>(cfg);
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }
  simulation.start();

  ASSERT_TRUE(simulation.run_until_pred([&] { return nodes[0]->decision().has_value(); }, gst));
  EXPECT_EQ(nodes[0]->decision(), Value{100});
  ASSERT_TRUE(simulation.run_until_pred(
      [&] {
        return std::all_of(nodes.begin(), nodes.end(),
                           [](auto* n) { return n->decision().has_value(); });
      },
      gst + 600 * sim::kSecond));
  EXPECT_TRUE(log.agreement_holds());
  EXPECT_EQ(nodes[2]->decision(), Value{100});
}

}  // namespace
}  // namespace tbft::baselines
