#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/adversary.hpp"

namespace tbft::sim {
namespace {

/// Echoes every received byte string back to its sender, up to a hop budget
/// carried in the first byte.
class PingPongNode final : public ProtocolNode {
 public:
  void on_start() override {
    if (ctx().id() == 0) ctx().send(1, {3});  // 3 hops to go
  }
  void on_message(NodeId from, const Payload& payload) override {
    ++received;
    last_at = ctx().now();
    if (!payload.empty() && payload.front() > 0) {
      ctx().send(from, {static_cast<std::uint8_t>(payload.front() - 1)});
    }
  }
  void on_timer(TimerId) override {}

  int received{0};
  SimTime last_at{0};
};

class TimerNode final : public ProtocolNode {
 public:
  void on_start() override {
    keep = ctx().set_timer(10);
    dropped = ctx().set_timer(5);
    ctx().cancel_timer(dropped);
  }
  void on_message(NodeId, const Payload&) override {}
  void on_timer(TimerId id) override { fired.push_back(id); }

  TimerId keep{0};
  TimerId dropped{0};
  std::vector<TimerId> fired;
};

class BroadcastOnceNode final : public ProtocolNode {
 public:
  void on_start() override {
    if (ctx().id() == 0) ctx().broadcast({42});
  }
  void on_message(NodeId from, const Payload& payload) override {
    froms.push_back(from);
    ASSERT_EQ(payload.size(), 1u);
    at = ctx().now();
  }
  void on_timer(TimerId) override {}

  std::vector<NodeId> froms;
  SimTime at{-1};
};

SimConfig basic_cfg() {
  SimConfig cfg;
  cfg.net.gst = 0;
  cfg.net.delta_actual = 100;
  cfg.net.delta_bound = 1000;
  return cfg;
}

TEST(Runtime, MessageDeliveryAndHopTiming) {
  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<PingPongNode>());
  sim.add_node(std::make_unique<PingPongNode>());
  sim.start();
  sim.run_to_quiescence(10 * kSecond);

  auto& a = sim.node_as<PingPongNode>(0);
  auto& b = sim.node_as<PingPongNode>(1);
  // 0 sends (hop 1) -> 1 replies (hop 2) -> 0 replies (hop 3) -> 1 stops.
  EXPECT_EQ(b.received, 2);
  EXPECT_EQ(a.received, 2);
  EXPECT_EQ(b.last_at, 300);  // third hop lands at 3 * delta_actual
}

TEST(Runtime, TimersFireAndCancelledTimersDont) {
  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<TimerNode>());
  sim.start();
  sim.run_to_quiescence(10 * kSecond);
  auto& n = sim.node_as<TimerNode>(0);
  ASSERT_EQ(n.fired.size(), 1u);
  EXPECT_EQ(n.fired[0], n.keep);
}

TEST(Runtime, BroadcastReachesAllIncludingSelf) {
  Simulation sim(basic_cfg());
  for (int i = 0; i < 4; ++i) sim.add_node(std::make_unique<BroadcastOnceNode>());
  sim.start();
  sim.run_to_quiescence(10 * kSecond);

  // Sender gets its own copy instantly; others after delta.
  EXPECT_EQ(sim.node_as<BroadcastOnceNode>(0).froms.size(), 1u);
  EXPECT_EQ(sim.node_as<BroadcastOnceNode>(0).at, 0);
  for (NodeId i = 1; i < 4; ++i) {
    auto& n = sim.node_as<BroadcastOnceNode>(i);
    ASSERT_EQ(n.froms.size(), 1u) << "node " << i;
    EXPECT_EQ(n.froms[0], 0u);
    EXPECT_EQ(n.at, 100);
  }
}

TEST(Runtime, TraceCountsNetworkMessagesNotSelfSends) {
  Simulation sim(basic_cfg());
  for (int i = 0; i < 4; ++i) sim.add_node(std::make_unique<BroadcastOnceNode>());
  sim.start();
  sim.run_to_quiescence(10 * kSecond);
  // Broadcast from node 0: 3 network messages (self-send free).
  EXPECT_EQ(sim.trace().total_messages(), 3u);
  EXPECT_EQ(sim.trace().total_bytes(), 3u);
  EXPECT_EQ(sim.trace().messages_by_type().at(42), 3u);
}

TEST(Runtime, DecisionRecordingAndAgreement) {
  class Decider final : public ProtocolNode {
   public:
    void on_start() override { ctx().publish_commit(0, Value{7}); }
    void on_message(NodeId, const Payload&) override {}
    void on_timer(TimerId) override {}
  };
  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<Decider>());
  sim.add_node(std::make_unique<Decider>());
  sim.start();
  sim.run_to_quiescence(kSecond);
  EXPECT_TRUE(sim.trace().agreement_holds());
  ASSERT_TRUE(sim.trace().decision_of(0).has_value());
  EXPECT_EQ(sim.trace().decision_of(1)->value, Value{7});
}

TEST(Runtime, AgreementViolationDetected) {
  Trace trace;
  trace.record_decision({0, 0, Value{1}, 0});
  trace.record_decision({1, 0, Value{2}, 0});
  EXPECT_FALSE(trace.agreement_holds());
}

TEST(Runtime, RunUntilPredStopsEarly) {
  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<PingPongNode>());
  sim.add_node(std::make_unique<PingPongNode>());
  sim.start();
  auto& b = sim.node_as<PingPongNode>(1);
  EXPECT_TRUE(sim.run_until_pred([&] { return b.received >= 1; }, 10 * kSecond));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(b.received, 1);
}

TEST(Runtime, SilentNodeDoesNothing) {
  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<SilentNode>());
  sim.add_node(std::make_unique<SilentNode>());
  sim.start();
  sim.run_to_quiescence(kSecond);
  EXPECT_EQ(sim.trace().total_messages(), 0u);
}

/// Arms and immediately cancels a timer every tick, 10k times: the classic
/// leaky-bookkeeping workload (the seed runtime grew an unbounded
/// cancelled-id set under it).
class TimerChurnNode final : public ProtocolNode {
 public:
  static constexpr int kRounds = 10000;

  void on_start() override { tick(); }
  void on_message(NodeId, const Payload&) override {}
  void on_timer(TimerId id) override {
    if (id != keeper_) return;
    ++fired;
    tick();
  }

  int fired{0};

 private:
  void tick() {
    if (fired >= kRounds) return;
    // One throwaway timer cancelled right away, plus the keeper that drives
    // the next round; the throwaway's slot must be recycled.
    const TimerId doomed = ctx().set_timer(5);
    ctx().cancel_timer(doomed);
    ctx().cancel_timer(doomed);  // double-cancel must be harmless
    keeper_ = ctx().set_timer(1);
  }

  TimerId keeper_{0};
};

TEST(Runtime, CancelledTimerBookkeepingStaysBounded) {
  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<TimerChurnNode>());
  sim.start();
  sim.run_to_quiescence(3600 * kSecond);

  auto& n = sim.node_as<TimerChurnNode>(0);
  EXPECT_EQ(n.fired, TimerChurnNode::kRounds);
  // 20k timers were armed and 10k cancelled, but slots are generation-counted
  // and recycled: live storage is the peak number of concurrently armed
  // timers (keeper + doomed + a stale heap entry or two), not O(cancels).
  EXPECT_LE(sim.timer_slot_count(), 4u);
  EXPECT_EQ(sim.armed_timer_count(), 0u);
}

TEST(Runtime, CancellingAFiredTimerIsHarmless) {
  class LateCancelNode final : public ProtocolNode {
   public:
    void on_start() override { first_ = ctx().set_timer(1); }
    void on_message(NodeId, const Payload&) override {}
    void on_timer(TimerId id) override {
      fired.push_back(id);
      if (id == first_) {
        ctx().cancel_timer(first_);  // already fired: must be a no-op...
        second_ = ctx().set_timer(1);  // ...and must not kill a fresh timer
      }
    }
    std::vector<TimerId> fired;

   private:
    TimerId first_{0};
    TimerId second_{0};
  };

  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<LateCancelNode>());
  sim.start();
  sim.run_to_quiescence(kSecond);
  // Both timers fired: the late cancel neither crashed nor invalidated the
  // recycled slot's new generation.
  EXPECT_EQ(sim.node_as<LateCancelNode>(0).fired.size(), 2u);
  EXPECT_EQ(sim.armed_timer_count(), 0u);
}

TEST(Runtime, TimerIdsAreNeverZeroAndNeverRepeatWhileArmed) {
  class ManyTimersNode final : public ProtocolNode {
   public:
    void on_start() override {
      for (int i = 0; i < 100; ++i) ids.push_back(ctx().set_timer(10 + i));
    }
    void on_message(NodeId, const Payload&) override {}
    void on_timer(TimerId) override {}
    std::vector<TimerId> ids;
  };

  Simulation sim(basic_cfg());
  sim.add_node(std::make_unique<ManyTimersNode>());
  sim.start();
  auto& n = sim.node_as<ManyTimersNode>(0);
  std::set<TimerId> unique(n.ids.begin(), n.ids.end());
  EXPECT_EQ(unique.size(), n.ids.size());
  EXPECT_EQ(unique.count(0), 0u);
  EXPECT_EQ(sim.armed_timer_count(), 100u);
  sim.run_to_quiescence(kSecond);
  EXPECT_EQ(sim.armed_timer_count(), 0u);
}

TEST(Runtime, BroadcastSharesOnePayloadAcrossRecipients) {
  auto& stats = Payload::stats();
  const std::uint64_t frozen_before = stats.frozen;
  const std::uint64_t adopted_before = stats.adopted;

  Simulation sim(basic_cfg());
  for (int i = 0; i < 8; ++i) sim.add_node(std::make_unique<BroadcastOnceNode>());
  sim.start();
  sim.run_to_quiescence(10 * kSecond);

  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_EQ(sim.node_as<BroadcastOnceNode>(i).froms.size(), 1u) << "node " << i;
  }
  // One broadcast := one payload materialization (here: vector adoption),
  // regardless of the 8 recipients.
  EXPECT_EQ(stats.frozen, frozen_before);
  EXPECT_EQ(stats.adopted, adopted_before + 1);
}

TEST(Runtime, PreGstDropsAreRecorded) {
  SimConfig cfg;
  cfg.net.gst = kNever;  // never synchronous
  cfg.net.pre_gst_drop_prob = 1.0;
  Simulation sim(cfg);
  for (int i = 0; i < 2; ++i) sim.add_node(std::make_unique<BroadcastOnceNode>());
  sim.start();
  sim.run_to_quiescence(kSecond);
  EXPECT_EQ(sim.trace().dropped_messages(), 1u);
  EXPECT_EQ(sim.node_as<BroadcastOnceNode>(1).froms.size(), 0u);
}

}  // namespace
}  // namespace tbft::sim
