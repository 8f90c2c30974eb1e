#include "pktio/mbuf.hpp"

#include <utility>

#include "common/expect.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::pktio {

Mempool::Mempool(std::size_t capacity, std::string name)
    : name_(std::move(name)) {
  CHOIR_EXPECT(capacity > 0, "mempool capacity must be positive");
  storage_.resize(capacity);
  free_.reserve(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    storage_[i].pool = this;
    storage_[i].pool_index = i;
    free_.push_back(static_cast<std::uint32_t>(capacity - 1 - i));
  }
  if (!name_.empty() && telemetry::Registry::current() != nullptr) {
    const std::string base = "pool." + name_ + ".";
    tm_in_use_hwm_ = telemetry::gauge(base + "in_use_hwm");
    exposure_.counter(base + "alloc_failures", alloc_failures_);
  }
}

Mbuf* Mempool::alloc() {
  if (fault_ != nullptr && fault_->deny_alloc()) {
    ++alloc_failures_;
    ++denied_allocs_;
    return nullptr;
  }
  if (free_.empty()) {
    ++alloc_failures_;
    return nullptr;
  }
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  Mbuf* m = &storage_[idx];
  m->frame = Frame{};
  m->rx_timestamp = 0;
  m->port = 0;
  m->refcnt = 1;
  const std::size_t used = in_use();
  if (used > in_use_hwm_) {
    in_use_hwm_ = used;
    tm_in_use_hwm_.set_max(static_cast<std::int64_t>(used));
  }
  return m;
}

void Mempool::release(Mbuf* m) {
  CHOIR_EXPECT(m != nullptr && m->refcnt > 0, "release of dead mbuf");
  if (--m->refcnt == 0) m->pool->take_back(m);
}

void Mempool::take_back(Mbuf* m) { free_.push_back(m->pool_index); }

}  // namespace choir::pktio
