#include "sim/event_queue.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace choir::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesToEventTime) {
  EventQueue q;
  Ns seen = -1;
  q.schedule_at(123, [&] { seen = q.now(); });
  q.run();
  EXPECT_EQ(seen, 123);
  EXPECT_EQ(q.now(), 123);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  Ns seen = -1;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150);
}

TEST(EventQueue, RejectsPastEvents) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [] {}), Error);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(21, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty) {
  EventQueue q;
  q.run_until(500);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, EventsScheduledDuringRunAreProcessed) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) q.schedule_in(1, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), 99);
}

TEST(EventQueue, CountsFiredEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.events_fired(), 7u);
}

TEST(EventQueue, PendingReflectsLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule_at(5, [] {});
  q.schedule_at(6, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressManyEventsStayOrdered) {
  EventQueue q;
  Ns last = -1;
  bool ordered = true;
  // Pseudo-random times, checked monotone at execution.
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Ns t = static_cast<Ns>(x % 1000000);
    q.schedule_at(t, [&, t] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  q.run();
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace choir::sim
