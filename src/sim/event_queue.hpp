// Discrete-event core: a deterministic time-ordered event queue.
//
// Ties in time are broken by insertion sequence number, so two events
// scheduled for the same nanosecond always fire in the order they were
// scheduled. This determinism is load-bearing: every experiment in the
// repo is reproducible bit-for-bit from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace choir::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// Schedule `fn` to run at absolute simulated time `at` (>= now()).
  void schedule_at(Ns at, EventFn fn);

  /// Schedule `fn` to run `delay` ns from now.
  void schedule_in(Ns delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue drains or `until` (inclusive) is reached.
  /// Events scheduled during execution are processed if in range.
  void run_until(Ns until);

  /// Run events until the queue is empty.
  void run();

  Ns now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t events_fired() const { return fired_; }

 private:
  struct Event {
    Ns at;
    std::uint64_t seq;
    EventFn fn;
    bool operator>(const Event& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  /// Fire the earliest event; the heap must be non-empty.
  void pop_one();

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  Ns now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace choir::sim
