// Trial model: what the consistency metrics of Section 3 operate on.
//
// A trial is the sequence of packets received by the recorder in one
// replay, each identified by the contents of its 16-byte evaluation
// trailer (the paper defines packet identity by whatever regions the
// evaluator chooses; we follow its evaluation setup and use the stamped
// trailer). Where payloads repeat, occurrence tagging makes them unique
// so a trial is a permutation of distinct packets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_index.hpp"
#include "common/units.hpp"

namespace choir::core {

/// 128-bit packet identity (the evaluation trailer, minus its magic).
struct PacketId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const PacketId&, const PacketId&) = default;
};

/// Identity of the k-th occurrence of a repeated id (occurrence 0 is the
/// id itself). The mix constant keeps derived ids disjoint from natural
/// trailer values. Shared by Trial::make_occurrences_unique and the
/// streaming monitor so an incrementally observed stream builds the exact
/// same trial a batch capture does.
constexpr PacketId occurrence_id(PacketId id, std::uint64_t occurrence) {
  if (occurrence > 0) {
    id.hi ^= occurrence * 0xd6e8feb86659fd93ULL;
    id.lo ^= occurrence;
  }
  return id;
}

struct PacketIdHash {
  std::size_t operator()(const PacketId& id) const noexcept {
    // xor-fold with a multiplicative mix; ids are already well spread.
    std::uint64_t x = id.hi * 0x9e3779b97f4a7c15ULL ^ id.lo;
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x);
  }
};

/// Packet id -> dense id, in first-insert order.
using PacketIdIndex = FlatIndex<PacketId, PacketIdHash>;

/// One received packet: identity plus receiver timestamp.
struct TrialPacket {
  PacketId id;
  Ns time = 0;
};

/// A received packet sequence, ordered as captured.
class Trial {
 public:
  Trial() = default;
  explicit Trial(std::vector<TrialPacket> packets)
      : packets_(std::move(packets)) {}

  void push_back(TrialPacket p) { packets_.push_back(p); }
  void reserve(std::size_t n) { packets_.reserve(n); }

  /// Drop every packet but keep the storage, so a trial reused as a
  /// buffer refills without allocating once its capacity suffices.
  void clear() { packets_.clear(); }

  /// Replace the packets with a copy of `packets`, reusing the storage
  /// like clear().
  void assign(std::span<const TrialPacket> packets) {
    packets_.assign(packets.begin(), packets.end());
  }

  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }
  const TrialPacket& operator[](std::size_t i) const { return packets_[i]; }
  const std::vector<TrialPacket>& packets() const { return packets_; }

  /// First / last arrival times (t_X0 and t_X|X| in the paper). Undefined
  /// on an empty trial; callers must check empty() first.
  Ns first_time() const { return packets_.front().time; }
  Ns last_time() const { return packets_.back().time; }
  Ns duration() const { return last_time() - first_time(); }

  /// Shift every timestamp by `delta`, in place and in one pass. This is
  /// the time normalization run once per capture ahead of every
  /// comparison; it used to copy the whole packet vector and subtract
  /// per element, which at paper scale (~1.05 M packets per run) was a
  /// measurable slice of the evaluation (see bench_metrics).
  void shift_times(Ns delta);

  /// Rebase so the first packet arrives at time 0 (the paper evaluates
  /// each capture on its own timebase). No-op on an empty trial.
  void rebase_to_zero();

  /// Rewrite duplicate ids as (id, occurrence#) so every packet is unique,
  /// per Section 3's ordering construction. Stable: k-th duplicate gets
  /// occurrence k. Returns the number of packets rewritten.
  std::size_t make_occurrences_unique();

 private:
  std::vector<TrialPacket> packets_;
};

}  // namespace choir::core
