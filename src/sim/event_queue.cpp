#include "sim/event_queue.hpp"

#include "common/expect.hpp"

namespace choir::sim {

void EventQueue::schedule_at(Ns at, EventFn fn) {
  CHOIR_EXPECT(at >= now_, "cannot schedule an event in the past");
  heap_.push(Event{at, next_seq_++, std::move(fn)});
}

void EventQueue::pop_one() {
  // const_cast is safe: we pop immediately after moving the callback out.
  Event& top = const_cast<Event&>(heap_.top());
  const Ns at = top.at;
  EventFn fn = std::move(top.fn);
  heap_.pop();
  now_ = at;
  ++fired_;
  fn();
}

void EventQueue::run_until(Ns until) {
  while (!heap_.empty() && heap_.top().at <= until) pop_one();
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (!heap_.empty()) pop_one();
}

}  // namespace choir::sim
