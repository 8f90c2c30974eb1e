#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
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

// ---- Oracles ----------------------------------------------------------------

/// Seeded schedule generator for the differential test.
struct Lcg {
  std::uint64_t x;
  std::uint64_t next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  }
};

/// Random schedules against the reference order. Every event's (at, seq)
/// is fixed when it is scheduled, and an event scheduled while the queue
/// runs lands at or after now() with a larger sequence than anything
/// already fired. So the firing order of the whole run must equal the
/// schedule log stable-sorted by time (stable = by sequence). Times come
/// from a narrow range, so most events tie with others, and fired events
/// schedule children (some at the same nanosecond). Inline and boxed
/// callables and every component tag are mixed in.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_{seed} {}

  void run() {
    for (int i = 0; i < 400; ++i) schedule(static_cast<Ns>(rng_.next() % 64));
    // Drain in steps, so run_until's boundary handling is exercised too.
    Ns until = 0;
    while (!q_.empty()) {
      q_.run_until(until);
      until += 1 + static_cast<Ns>(rng_.next() % 16);
    }
  }

  void check() const {
    std::vector<Entry> expected = log_;
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const Entry& a, const Entry& b) { return a.at < b.at; });
    ASSERT_EQ(fired_.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(fired_[i], expected[i].id) << "at position " << i;
    }
    EventLedger ledger{};
    for (const Entry& e : log_) ++ledger[static_cast<std::size_t>(e.tag)];
    EXPECT_EQ(q_.ledger(), ledger);
    EXPECT_EQ(q_.events_fired(), log_.size());
  }

 private:
  struct Entry {
    Ns at;
    std::size_t id;
    Component tag;
  };

  void schedule(Ns at) {
    const std::size_t id = log_.size();
    const auto tag = static_cast<Component>(rng_.next() % kComponentCount);
    log_.push_back({at, id, tag});
    if (rng_.next() % 3 == 0) {
      // Boxed: a std::function is not trivially copyable.
      q_.schedule_at(at, tag, std::function<void()>([this, id] { fire(id); }));
    } else {
      q_.schedule_at(at, tag, [this, id] { fire(id); });
    }
  }

  void fire(std::size_t id) {
    EXPECT_EQ(q_.now(), log_[id].at);
    fired_.push_back(id);
    if (log_.size() >= 4000) return;
    const int children = static_cast<int>(rng_.next() % 3);
    for (int c = 0; c < children; ++c) {
      schedule(q_.now() + static_cast<Ns>(rng_.next() % 8));
    }
  }

  EventQueue q_;
  Lcg rng_;
  std::vector<Entry> log_;
  std::vector<std::size_t> fired_;
};

TEST(EventQueue, MatchesStableSortReferenceOrder) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 97ULL, 2025ULL}) {
    Differential d(seed);
    d.run();
    d.check();
  }
}

TEST(EventQueue, InlineAndBoxedCallablesRunWithTheirCaptures) {
  EventQueue q;
  std::vector<std::uint64_t> seen;
  // 32 bytes of trivially copyable capture: stored inline.
  const std::uint64_t a = 1, b = 2, c = 3;
  auto* out = &seen;
  q.schedule_at(1, [out, a, b, c] { out->push_back(a + b + c); });
  // 48 bytes: over the inline budget, so boxed.
  const std::array<std::uint64_t, 5> big{10, 20, 30, 40, 50};
  q.schedule_at(2, [out, big] {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : big) sum += v;
    out->push_back(sum);
  });
  q.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{6, 150}));
}

TEST(EventQueue, BoxedCallableFreedAfterFiring) {
  auto token = std::make_shared<int>(0);
  EventQueue q;
  q.schedule_at(5, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  q.run();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, BoxedCallableFreedWhenItThrows) {
  auto token = std::make_shared<int>(0);
  EventQueue q;
  int after = 0;
  q.schedule_at(5, [token] { throw std::runtime_error("boom"); });
  q.schedule_at(6, [&after] { ++after; });
  EXPECT_THROW(q.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  // The throwing event was consumed; the queue carries on.
  EXPECT_EQ(q.now(), 5);
  q.run();
  EXPECT_EQ(after, 1);
}

TEST(EventQueue, BoxedCallableFreedWhenQueueDiesWithItPending) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    q.schedule_at(5, [token] { ++*token; });
    q.schedule_at(9, Component::kLink, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RejectedPastEventTakesNoCopy) {
  auto token = std::make_shared<int>(0);
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [token] { ++*token; }), Error);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LedgerCountsPerComponentAndSumsToFired) {
  EventQueue q;
  q.schedule_at(1, Component::kTxPort, [] {});
  q.schedule_at(2, Component::kTxPort, [] {});
  q.schedule_at(3, Component::kLink, [&q] {
    q.schedule_in(1, Component::kSwitch, [] {});
  });
  q.schedule_at(4, [] {});
  q.schedule_at(100, Component::kNoise, [] {});
  q.run_until(50);
  const EventLedger& ledger = q.ledger();
  EXPECT_EQ(ledger[static_cast<std::size_t>(Component::kTxPort)], 2u);
  EXPECT_EQ(ledger[static_cast<std::size_t>(Component::kLink)], 1u);
  EXPECT_EQ(ledger[static_cast<std::size_t>(Component::kSwitch)], 1u);
  EXPECT_EQ(ledger[static_cast<std::size_t>(Component::kExternal)], 1u);
  EXPECT_EQ(ledger[static_cast<std::size_t>(Component::kNoise)], 0u);
  std::uint64_t sum = 0;
  for (const std::uint64_t n : ledger) sum += n;
  EXPECT_EQ(sum, q.events_fired());
  EXPECT_EQ(q.events_fired(), 5u);
}

TEST(EventQueue, EveryComponentHasADistinctName) {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    EXPECT_FALSE(kComponentNames[i].empty()) << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(kComponentNames[i], kComponentNames[j]);
    }
  }
}

}  // namespace
}  // namespace choir::sim
