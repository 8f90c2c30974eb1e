#include "sim/event_queue.hpp"

#include <algorithm>

namespace choir::sim {

namespace {

/// Heap order for std::push_heap/pop_heap: `a` fires after `b`.
struct FiresLater {
  template <class R>
  bool operator()(const R& a, const R& b) const {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  }
};

}  // namespace

EventQueue::~EventQueue() {
  for (Record& r : heap_) {
    if (r.drop != nullptr) r.drop(r.storage);
  }
}

void EventQueue::push(const Record& r) {
  heap_.push_back(r);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

void EventQueue::pop_one() {
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  Record r = heap_.back();
  heap_.pop_back();
  now_ = r.at;
  ++fired_[r.order & 0xff];
  r.invoke(r.storage);
}

void EventQueue::run_until(Ns until) {
  while (!heap_.empty() && heap_.front().at <= until) pop_one();
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (!heap_.empty()) pop_one();
}

}  // namespace choir::sim
