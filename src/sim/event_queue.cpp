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
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    if ((bits_[slot / 64] >> (slot % 64) & 1) == 0) continue;
    for (std::uint32_t i = head_[slot];; i = next_[i]) {
      if (slab_[i].drop != nullptr) slab_[i].drop(slab_[i].storage);
      if (i == tail_[slot]) break;
    }
  }
  for (Record& r : overflow_) {
    if (r.drop != nullptr) r.drop(r.storage);
  }
}

void EventQueue::push(const Record& r) {
  if (r.at - now_ < kHorizon) {
    append(r);
    return;
  }
  overflow_.push_back(r);
  std::push_heap(overflow_.begin(), overflow_.end(), FiresLater{});
}

void EventQueue::append(const Record& r) {
  std::uint32_t i = free_;
  if (i != kNil) {
    free_ = next_[i];
    slab_[i] = r;
  } else {
    i = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(r);
    next_.push_back(kNil);
  }
  const std::size_t slot = slot_of(r.at);
  std::uint64_t& word = bits_[slot / 64];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((word & bit) != 0) {
    next_[tail_[slot]] = i;
  } else {
    head_[slot] = i;
    word |= bit;
    summary_ |= std::uint64_t{1} << (slot / 64);
  }
  tail_[slot] = i;
  ++wheel_size_;
}

void EventQueue::migrate() {
  while (!overflow_.empty() && overflow_.front().at - now_ < kHorizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), FiresLater{});
    append(overflow_.back());
    overflow_.pop_back();
  }
}

Ns EventQueue::next_at() const {
  if (wheel_size_ == 0) return overflow_.front().at;
  // First non-empty slot at or after now's, wrapping around: slots
  // below now's hold the latest times of the horizon.
  const std::size_t from = slot_of(now_);
  const std::size_t w = from / 64;
  std::size_t slot;
  if (const std::uint64_t m = bits_[w] & (~std::uint64_t{0} << (from % 64));
      m != 0) {
    slot = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
  } else {
    std::uint64_t words = summary_ & (~std::uint64_t{1} << w);
    if (words == 0) words = summary_;
    const auto w2 = static_cast<std::size_t>(std::countr_zero(words));
    slot = w2 * 64 + static_cast<std::size_t>(std::countr_zero(bits_[w2]));
  }
  return now_ + static_cast<Ns>((slot - from) & (kSlots - 1));
}

void EventQueue::fire_next(Ns at) {
  if (at != now_) {
    now_ = at;
    migrate();
  }
  const std::size_t slot = slot_of(at);
  const std::uint32_t i = head_[slot];
  if (i == tail_[slot]) {
    std::uint64_t& word = bits_[slot / 64];
    word &= ~(std::uint64_t{1} << (slot % 64));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (slot / 64));
  } else {
    head_[slot] = next_[i];
  }
  Record r = slab_[i];
  next_[i] = free_;
  free_ = i;
  --wheel_size_;
  ++fired_[r.order & 0xff];
  r.invoke(r.storage);
}

void EventQueue::run_until(Ns until) {
  while (!empty()) {
    const Ns at = next_at();
    if (at > until) break;
    fire_next(at);
  }
  if (now_ < until) {
    now_ = until;
    migrate();
  }
}

void EventQueue::run() {
  while (!empty()) fire_next(next_at());
}

}  // namespace choir::sim
