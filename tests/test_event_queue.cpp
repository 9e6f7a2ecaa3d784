#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace tbft::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  q.run_until(7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, StepAdvancesNow) {
  EventQueue q;
  q.schedule_at(5, [] {});
  EXPECT_EQ(q.now(), 0);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(q.now(), 5);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(50, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<SimTime> fire_times;
  q.schedule_at(1, [&] {
    fire_times.push_back(q.now());
    q.schedule_at(q.now() + 1, [&] { fire_times.push_back(q.now()); });
  });
  q.run_until(10);
  EXPECT_EQ(fire_times, (std::vector<SimTime>{1, 2}));
}

TEST(EventQueue, EventAtExactDeadlineRuns) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(10, [&] { fired = true; });
  q.run_until(10);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_until(10);
  EXPECT_THROW(q.schedule_at(5, [] {}), InvariantViolation);
}

TEST(EventQueue, SizeTracksPending) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule_at(1, [] {});
  q.schedule_at(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.step();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeOnEmptyIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNever);
}

/// Records every typed event in arrival order.
class RecordingSink final : public EventSink {
 public:
  struct Rec {
    char kind;  // 'd' deliver, 't' timer
    NodeId a{0};
    NodeId b{0};
    TimerId timer{0};
    std::size_t bytes{0};
  };

  void on_deliver_event(NodeId src, NodeId dst, const Payload& payload) override {
    log.push_back(Rec{'d', src, dst, 0, payload.size()});
  }
  void on_timer_event(NodeId node, TimerId id) override {
    log.push_back(Rec{'t', node, 0, id, 0});
  }

  std::vector<Rec> log;
};

TEST(EventQueue, TypedEventsDispatchThroughSink) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);

  q.schedule_deliver(10, 1, 2, Payload{5, 6, 7});
  q.schedule_timer(5, 3, 42);
  q.run_until(100);

  ASSERT_EQ(sink.log.size(), 2u);
  EXPECT_EQ(sink.log[0].kind, 't');
  EXPECT_EQ(sink.log[0].a, 3u);
  EXPECT_EQ(sink.log[0].timer, 42u);
  EXPECT_EQ(sink.log[1].kind, 'd');
  EXPECT_EQ(sink.log[1].a, 1u);
  EXPECT_EQ(sink.log[1].b, 2u);
  EXPECT_EQ(sink.log[1].bytes, 3u);
}

TEST(EventQueue, EqualTimestampFifoAcrossEventKinds) {
  // The determinism contract: at equal timestamps, events of *any* kind fire
  // in scheduling order -- typed deliveries, timers and generic callbacks
  // interleave exactly as scheduled.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  std::vector<int> order;

  q.schedule_deliver(7, 0, 1, Payload{1});
  q.schedule_at(7, [&] { order.push_back(static_cast<int>(sink.log.size())); });
  q.schedule_timer(7, 2, 99);
  q.schedule_deliver(7, 3, 4, Payload{1, 2});
  q.run_until(7);

  ASSERT_EQ(sink.log.size(), 3u);
  EXPECT_EQ(sink.log[0].kind, 'd');
  EXPECT_EQ(sink.log[0].a, 0u);
  // The generic callback fired after exactly one typed event.
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(sink.log[1].kind, 't');
  EXPECT_EQ(sink.log[2].kind, 'd');
  EXPECT_EQ(sink.log[2].a, 3u);
}

TEST(EventQueue, DeliverSharesPayloadBufferAcrossEntries) {
  // Scheduling the same payload to many destinations shares one buffer:
  // only the refcount goes up.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);

  Payload p{9, 9, 9};
  EXPECT_EQ(p.use_count(), 1);
  for (NodeId dst = 0; dst < 16; ++dst) q.schedule_deliver(1, 0, dst, p);
  EXPECT_EQ(p.use_count(), 17);  // 16 queue slots + local

  q.run_until(1);
  EXPECT_EQ(sink.log.size(), 16u);
  EXPECT_EQ(p.use_count(), 1);  // queue slots released their references
}

TEST(EventQueue, LargeInterleavedLoadStaysSorted) {
  // 4-ary heap stress: pseudo-random times must still come out sorted, with
  // seq as the tiebreak.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);

  std::uint64_t state = 12345;
  std::vector<SimTime> scheduled;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto at = static_cast<SimTime>((state >> 33) % 500);
    scheduled.push_back(at);
    q.schedule_timer(at, 0, static_cast<TimerId>(i + 1));
  }
  q.run_until(1000);
  ASSERT_EQ(sink.log.size(), 2000u);
  SimTime prev = -1;
  TimerId prev_id = 0;
  std::sort(scheduled.begin(), scheduled.end());
  for (std::size_t i = 0; i < sink.log.size(); ++i) {
    const auto at = scheduled[i];
    EXPECT_GE(at, prev);
    if (at == prev) {
      EXPECT_GT(sink.log[i].timer, prev_id);  // FIFO per timestamp
    }
    prev = at;
    prev_id = sink.log[i].timer;
  }
}

}  // namespace
}  // namespace tbft::sim
