// An insert-only hash map from a key to a dense id assigned in
// first-insert order (the n-th distinct key gets id n), or to an id the
// caller assigns.
//
// It backs flow::FlowTable (flow key -> FlowId) and, inside
// core::PacketIdIndex, the hi -> lane directory and the spill table.
// Packet ids mostly do not reach it: PacketIdIndex resolves dense runs
// of tagged ids by direct addressing and spills only what is sparse
// (core/packet_id_index.hpp). Callers keep per-id payload in plain
// vectors indexed by the id, so the table stores only keys.
//
// Layout: linear probing over one slot array (key, id and epoch stamp
// side by side, so a probe touches one cache line), power-of-two
// capacity, load <= 1/2. A slot is live only while its stamp equals the
// current epoch, which makes clear() O(1): it bumps the epoch and drops
// the active capacity back to the minimum, so a cleared table refilled
// with n keys probes an O(n)-slot prefix of its storage however large it
// once grew. Stamps are rewritten for real only when the epoch wraps.
//
// Lookups return ids, never slot positions, so results do not depend on
// the hash function or the probe order. `Epoch` is the stamp type; tests
// narrow it to reach the wrap in a few hundred clears.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace choir {

template <typename Key, typename Hash, typename Epoch = std::uint32_t>
class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Active slots of the smallest table: it holds kMinCapacity / 2 - 1
  /// keys, and clear() returns to it.
  static constexpr std::size_t kMinCapacity = 64;

  struct Inserted {
    std::uint32_t id;  ///< dense id of the key
    bool fresh;        ///< true when this call assigned the id
  };

  /// Id of `key`, assigning the next dense id when it is new.
  Inserted insert(const Key& key) {
    return insert(key, static_cast<std::uint32_t>(size_));
  }

  /// insert() for a table whose ids the caller numbers: a new key gets
  /// `id` instead of the next dense id.
  Inserted insert(const Key& key, std::uint32_t id) {
    if (2 * (size_ + 1) > capacity_) {
      rehash(capacity_ < kMinCapacity ? kMinCapacity : 2 * capacity_);
    }
    Slot& slot = slots_[probe(key)];
    if (slot.epoch == epoch_) return {slot.id, false};
    ++size_;
    slot = Slot{key, id, epoch_};
    return {id, true};
  }

  /// Id of `key`, kNone when absent.
  std::uint32_t find(const Key& key) const {
    if (size_ == 0) return kNone;
    const Slot& slot = slots_[probe(key)];
    return slot.epoch == epoch_ ? slot.id : kNone;
  }

  /// Forget every key in O(1); ids restart at 0.
  void clear() {
    size_ = 0;
    if (capacity_ > kMinCapacity) {
      capacity_ = kMinCapacity;
      mask_ = kMinCapacity - 1;
    }
    next_epoch();
  }

  /// Make room for `n` keys without further rehashing: insert() grows
  /// only past load 1/2, so n keys fit in 2n slots. Returns true when
  /// the slot storage had to grow (allocation telemetry for callers).
  bool reserve(std::size_t n) {
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * n) capacity <<= 1;
    return capacity > capacity_ && rehash(capacity);
  }

  std::size_t size() const { return size_; }          ///< keys (= ids)
  std::size_t capacity() const { return capacity_; }  ///< active slots

 private:
  struct Slot {
    Key key{};
    std::uint32_t id = kNone;
    Epoch epoch = 0;  ///< live iff == epoch_; 0 is never current
  };

  /// The probe loop: the slot holding `key`, or the free slot ending its
  /// chain.
  std::size_t probe(const Key& key) const {
    std::size_t i = Hash{}(key) & mask_;
    while (slots_[i].epoch == epoch_ && !(slots_[i].key == key)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void next_epoch() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Re-place the live keys into `capacity` active slots, keeping ids.
  bool rehash(std::size_t capacity) {
    std::vector<Slot> live;
    live.reserve(size_);
    for (std::size_t i = 0; live.size() < size_; ++i) {
      if (slots_[i].epoch == epoch_) live.push_back(slots_[i]);
    }
    const bool grew = slots_.size() < capacity;
    if (grew) slots_.assign(capacity, Slot{});
    capacity_ = capacity;
    mask_ = capacity - 1;
    next_epoch();
    for (Slot slot : live) {
      slot.epoch = epoch_;
      slots_[probe(slot.key)] = slot;
    }
    return grew;
  }

  std::vector<Slot> slots_;
  std::size_t capacity_ = 0;  ///< active prefix of slots_, a power of two
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  Epoch epoch_ = 1;
};

}  // namespace choir
