// Zero-copy replay buffer.
//
// "A recording is made by holding forwarded packets in memory after their
// transmission without making a copy" — the recording retains a reference
// on each mbuf it stores; the forwarding path's own reference is released
// by the NIC after transmit. Packets stay grouped as the bursts they were
// transmitted in, each burst stamped with the transmit-time TSC read.
// The packets sit flat in one deque and each burst is a {tsc, first,
// count} record, so recording a burst allocates nothing per burst.
//
// Two capacity disciplines:
//  - bounded (the paper's implementation): once `capacity` packets are
//    held, further bursts overflow and are not recorded;
//  - rolling (the paper's Section 4 future work): the buffer is a ring —
//    the oldest bursts are evicted to admit new ones, so the recording
//    always holds the most recent `capacity` packets. This is what makes
//    breakpoint-style "what just happened" debugging possible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "pktio/mbuf.hpp"

namespace choir::app {

/// The packets of one recorded burst, in transmit order: a view into
/// the recording, valid until that burst itself is evicted. It keeps the
/// burst's position counted from the first packet ever held, so evicting
/// older bursts and adding newer ones leave it pointing at its own packets.
class BurstPackets {
 public:
  BurstPackets(const std::deque<pktio::Mbuf*>& held,
               const std::uint64_t& evicted, std::uint64_t first,
               std::size_t count)
      : held_(&held), evicted_(&evicted), first_(first), count_(count) {}

  std::size_t size() const { return count_; }
  pktio::Mbuf* operator[](std::size_t i) const {
    return (*held_)[first_ - *evicted_ + i];
  }
  pktio::Mbuf* front() const { return (*this)[0]; }
  pktio::Mbuf* back() const { return (*this)[count_ - 1]; }
  auto begin() const {
    return held_->begin() + static_cast<std::ptrdiff_t>(first_ - *evicted_);
  }
  auto end() const { return begin() + static_cast<std::ptrdiff_t>(count_); }

 private:
  const std::deque<pktio::Mbuf*>* held_;
  const std::uint64_t* evicted_;  ///< the recording's evicted-packet count
  std::uint64_t first_;           ///< held_[first_ - *evicted_] is the first
  std::size_t count_;
};

struct RecordedBurst {
  std::uint64_t tsc = 0;  ///< TSC at transmit of the burst
  BurstPackets pkts;
};

class Recording {
 public:
  enum class Mode {
    kBounded,  ///< stop admitting at capacity
    kRolling,  ///< evict oldest bursts at capacity
  };

  explicit Recording(std::size_t capacity = SIZE_MAX,
                     Mode mode = Mode::kBounded)
      : capacity_(capacity), mode_(mode) {}
  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;
  ~Recording() { clear(); }

  /// Retain and store one transmitted burst. Returns false (and stores
  /// nothing) only in bounded mode at capacity.
  bool add_burst(std::uint64_t tsc, pktio::Mbuf* const* pkts,
                 std::uint16_t n) {
    if (packets_.size() + n > capacity_) {
      if (mode_ == Mode::kBounded) return false;
      while (!bursts_.empty() && packets_.size() + n > capacity_) {
        evict_front();
      }
      if (packets_.size() + n > capacity_) return false;  // burst > capacity
    }
    bursts_.push_back(Burst{tsc, evicted_ + packets_.size(), n});
    for (std::uint16_t i = 0; i < n; ++i) {
      pktio::Mempool::retain(pkts[i]);
      packets_.push_back(pkts[i]);
    }
    return true;
  }

  /// Release every held buffer.
  void clear() {
    while (!bursts_.empty()) evict_front();
  }

  /// The i-th held burst, oldest first.
  RecordedBurst burst(std::size_t i) const {
    const Burst& b = bursts_[i];
    return {b.tsc, BurstPackets(packets_, evicted_, b.first, b.count)};
  }
  std::size_t burst_count() const { return bursts_.size(); }
  std::size_t packet_count() const { return packets_.size(); }
  bool empty() const { return bursts_.empty(); }
  std::uint64_t first_tsc() const { return bursts_.front().tsc; }
  std::uint64_t last_tsc() const { return bursts_.back().tsc; }
  std::size_t capacity() const { return capacity_; }
  Mode mode() const { return mode_; }
  std::uint64_t evicted_packets() const { return evicted_; }

  /// Reconfigure capacity/mode; only allowed while empty (between
  /// recordings), to keep eviction semantics unambiguous.
  void configure(std::size_t capacity, Mode mode) {
    if (!bursts_.empty()) return;
    capacity_ = capacity;
    mode_ = mode;
  }

 private:
  /// One held burst: its transmit TSC and where its packets sit in
  /// `packets_`, numbered from the first packet ever held.
  struct Burst {
    std::uint64_t tsc;
    std::uint64_t first;  ///< packets_[first - evicted_] is its first
    std::uint32_t count;
  };

  void evict_front() {
    const Burst& burst = bursts_.front();
    for (std::uint32_t i = 0; i < burst.count; ++i) {
      pktio::Mempool::release(packets_.front());
      packets_.pop_front();
    }
    evicted_ += burst.count;
    bursts_.pop_front();
  }

  std::deque<pktio::Mbuf*> packets_;  ///< every held packet, burst order
  std::deque<Burst> bursts_;
  std::size_t capacity_;
  Mode mode_;
  std::uint64_t evicted_ = 0;  ///< packets released from the front
};

}  // namespace choir::app
