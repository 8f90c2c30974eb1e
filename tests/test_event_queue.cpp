#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
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

/// What a Differential run schedules. Each delay class, relative to
/// now(), is drawn with its weight.
struct Mix {
  int tie = 0;      ///< 0 ns: at now()
  int near = 0;     ///< 0..7 ns
  int horizon = 0;  ///< kHorizon - 2 .. kHorizon + 2 ns
  int wide = 0;     ///< 0 .. 4 kHorizon ns
  int far = 0;      ///< 1 ms .. 1 s
  int initial = 400;          ///< events scheduled before the first run
  std::size_t budget = 4000;  ///< no more children past this many events
  int max_children = 2;       ///< children per fired event: 0..max
  int externals = 0;          ///< scheduled from outside per run_until
  Ns step = 16;               ///< run_until advances 1..step ns
  int throw_one_in = 0;       ///< 0: never; else 1 in N callbacks throws
};

/// Seeded random schedules against a reference that shares no code with
/// the queue: an ordered set of the scheduled, unfired (at, sequence)
/// pairs, the sequence being the log index. Every event's (at,
/// sequence) is fixed when it is scheduled, and an event scheduled while
/// the queue runs lands at or after now() with a larger sequence than
/// anything already fired. So each firing event must be the set's
/// least, and the whole run's firing order must equal the schedule log
/// sorted by (at, sequence). At every run_until boundary the reference
/// also predicts now() and pending(), and that nothing due by then is
/// left. Inline and boxed callables and every component tag are mixed
/// in.
class Differential {
 public:
  Differential(std::uint64_t seed, Mix mix) : rng_{seed}, mix_(mix) {}

  void run() {
    for (int i = 0; i < mix_.initial; ++i) {
      schedule(static_cast<Ns>(rng_.next() % 64) + delay());
    }
    // Drain in steps, so run_until's boundary handling is exercised too.
    Ns until = 0;
    while (!q_.empty()) {
      run_until(until);
      for (int i = 0; i < mix_.externals && log_.size() < mix_.budget; ++i) {
        schedule(q_.now() + delay());
      }
      const auto step = static_cast<std::uint64_t>(mix_.step);
      until += 1 + static_cast<Ns>(rng_.next() % step);
      // Across an idle stretch, land the next boundary just before the
      // reference's next event.
      if (!pending_.empty() && pending_.begin()->first > until) {
        until = std::max(until, pending_.begin()->first -
                                    static_cast<Ns>(rng_.next() % step));
      }
    }
  }

  void check() const {
    std::vector<Entry> expected = log_;
    std::sort(expected.begin(), expected.end(),
              [](const Entry& a, const Entry& b) {
                return a.at != b.at ? a.at < b.at : a.id < b.id;
              });
    ASSERT_EQ(fired_.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(fired_[i], expected[i].id) << "at position " << i;
    }
    EventLedger ledger{};
    for (const Entry& e : log_) ++ledger[static_cast<std::size_t>(e.tag)];
    EXPECT_EQ(q_.ledger(), ledger);
    EXPECT_EQ(q_.events_fired(), log_.size());
  }

  std::size_t max_pending() const { return max_pending_; }
  std::size_t throws() const { return throws_; }

 private:
  struct Entry {
    Ns at;
    std::size_t id;
    Component tag;
  };

  Ns delay() {
    const int total =
        mix_.tie + mix_.near + mix_.horizon + mix_.wide + mix_.far;
    int pick =
        static_cast<int>(rng_.next() % static_cast<std::uint64_t>(total));
    if ((pick -= mix_.tie) < 0) return 0;
    if ((pick -= mix_.near) < 0) return static_cast<Ns>(rng_.next() % 8);
    if ((pick -= mix_.horizon) < 0) {
      return EventQueue::kHorizon - 2 + static_cast<Ns>(rng_.next() % 5);
    }
    if ((pick -= mix_.wide) < 0) {
      return static_cast<Ns>(
          rng_.next() % static_cast<std::uint64_t>(4 * EventQueue::kHorizon));
    }
    return milliseconds(1) + static_cast<Ns>(rng_.next() % kNsPerSec);
  }

  /// run_until, resumed after each throwing callable, then checked
  /// against the reference at the boundary.
  void run_until(Ns until) {
    const Ns before = q_.now();
    until_ = until;
    for (;;) {
      try {
        q_.run_until(until);
        break;
      } catch (const std::runtime_error&) {
        ++throws_;
      }
    }
    EXPECT_EQ(q_.now(), std::max(before, until));
    ASSERT_EQ(q_.pending(), pending_.size());
    if (!pending_.empty()) {
      ASSERT_GT(pending_.begin()->first, until);
    }
  }

  void schedule(Ns at) {
    const std::size_t id = log_.size();
    const auto tag = static_cast<Component>(rng_.next() % kComponentCount);
    log_.push_back({at, id, tag});
    pending_.emplace(at, id);
    if (rng_.next() % 3 == 0) {
      // Boxed: a std::function is not trivially copyable.
      q_.schedule_at(at, tag, std::function<void()>([this, id] { fire(id); }));
    } else {
      q_.schedule_at(at, tag, [this, id] { fire(id); });
    }
    max_pending_ = std::max(max_pending_, q_.pending());
  }

  void fire(std::size_t id) {
    EXPECT_EQ(q_.now(), log_[id].at);
    EXPECT_LE(q_.now(), until_);
    ASSERT_FALSE(pending_.empty());
    EXPECT_EQ(pending_.begin()->second, id);
    pending_.erase({log_[id].at, id});
    fired_.push_back(id);
    if (log_.size() < mix_.budget) {
      const auto children = static_cast<int>(
          rng_.next() % static_cast<std::uint64_t>(mix_.max_children + 1));
      for (int c = 0; c < children; ++c) schedule(q_.now() + delay());
    }
    if (mix_.throw_one_in > 0 &&
        rng_.next() % static_cast<std::uint64_t>(mix_.throw_one_in) == 0) {
      throw std::runtime_error("callback failed");
    }
  }

  EventQueue q_;
  Lcg rng_;
  Mix mix_;
  std::vector<Entry> log_;
  std::set<std::pair<Ns, std::size_t>> pending_;  ///< the reference
  std::vector<std::size_t> fired_;
  Ns until_ = 0;
  std::size_t max_pending_ = 0;
  std::size_t throws_ = 0;
};

TEST(EventQueue, MatchesStableSortReferenceOrder) {
  // Times from a narrow range: most events tie with others, and fired
  // events schedule children, some at the same nanosecond.
  Mix mix;
  mix.near = 1;
  for (const std::uint64_t seed : {1ULL, 7ULL, 97ULL, 2025ULL}) {
    Differential d(seed, mix);
    d.run();
    d.check();
  }
}

TEST(EventQueue, OracleManyEventsTiedAtOneNanosecond) {
  Mix mix;
  mix.tie = 6;
  mix.near = 1;
  mix.initial = 50;
  mix.max_children = 3;
  for (const std::uint64_t seed : {3ULL, 11ULL, 4242ULL}) {
    Differential d(seed, mix);
    d.run();
    d.check();
  }
}

TEST(EventQueue, OracleDelaysAroundTheHorizonAndFarFuture) {
  Mix mix;
  mix.near = 2;
  mix.horizon = 4;
  mix.wide = 2;
  mix.far = 1;
  mix.step = 2 * EventQueue::kHorizon;
  for (const std::uint64_t seed : {5ULL, 13ULL, 777ULL}) {
    Differential d(seed, mix);
    d.run();
    d.check();
  }
}

TEST(EventQueue, OracleExternalSchedulingBetweenRunUntilCalls) {
  // Small steps put many run_until boundaries between events, and
  // outside callers schedule at the boundary itself and across the
  // horizon.
  Mix mix;
  mix.tie = 2;
  mix.near = 2;
  mix.horizon = 2;
  mix.wide = 1;
  mix.externals = 2;
  mix.step = 3;
  mix.max_children = 1;
  for (const std::uint64_t seed : {17ULL, 19ULL, 2024ULL}) {
    Differential d(seed, mix);
    d.run();
    d.check();
  }
}

TEST(EventQueue, OracleThrowingCallablesLeaveTheOrderIntact) {
  Mix mix;
  mix.tie = 1;
  mix.near = 2;
  mix.horizon = 1;
  mix.wide = 1;
  mix.throw_one_in = 7;
  for (const std::uint64_t seed : {23ULL, 29ULL}) {
    Differential d(seed, mix);
    d.run();
    d.check();
    EXPECT_GT(d.throws(), 0u);
  }
}

TEST(EventQueue, OracleDeepPendingCount) {
  // Far deeper than the 651 events record_replay ever has pending, and
  // deeper than the wheel has slots.
  Mix mix;
  mix.near = 1;
  mix.horizon = 1;
  mix.wide = 4;
  mix.far = 1;
  mix.initial = 20000;
  mix.budget = 40000;
  mix.step = EventQueue::kHorizon;
  Differential d(31, mix);
  d.run();
  d.check();
  EXPECT_GT(d.max_pending(), 20000u);
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
    q.schedule_at(9, [token] { ++*token; });
    // Beyond the wheel's horizon: pending in the overflow heap.
    q.schedule_at(10 * EventQueue::kHorizon, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 5);
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
