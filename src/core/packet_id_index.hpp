// Packet id -> dense id, in first-insert order: the index behind every
// "where is this packet?" question of the κ plane (core::ReferenceIndex,
// the κ kernel's B-only set and Trial::make_occurrences_unique).
//
// A tagged id is a (sender, sequence) pair: `hi` holds the replayer and
// stream of the evaluation tag, `lo` a dense per-middlebox counter
// (trace/tag.cpp). The ids of one trial therefore form a few dense runs
// of `lo`, one per `hi`, arriving nearly in order. The index keeps such
// runs in *lanes* and everything else in a *spill*:
//
//  - A lane covers one `hi`: a direct-addressed array of dense ids over
//    the window [base, base + span) of `lo` (offsets are taken mod 2^64,
//    so a window may wrap). A hit is one array read; a last-lane cache
//    skips the hi -> lane lookup on runs from one sender.
//  - The spill holds the first kStaged spilled ids inline, scanned
//    linearly, and moves them into one FlatIndex<PacketId>
//    (common/flat_index.hpp) when one more arrives.
//
// The input picks the path (lane density, and the hinted size for plain
// fills below); no caller chooses it. A lane opens when
// an id arrives whose predecessor (hi, lo - 1) is spilled and no other
// spilled id of that `hi` could sit in the lane's reach, and widens over
// a new `lo` only while its span stays within 2x its id count, which is
// FlatIndex's own load-1/2 slot budget. Ids that form no dense run
// (sparse or random ids, scattered untagged payload tokens) and ids
// below a lane's base spill. The opening lane takes the predecessor over
// (one taken from the spill table also stays there, never read again),
// so a lookup finds each id in one place. While the spill is staged, one
// scan of it proves the lane's reach empty. Once the spill table exists,
// a 4096-bucket filter over `hi` counts its ids that no lane holds (none,
// one, more): a lane opens when the predecessor is the only one in its
// bucket, so senders past the staging still get lanes, and a sender
// whose bucket another spilling sender shares keeps hashing. An id that
// spills later within a lane's reach sets the lane's `spill_check`,
// after which a fresh id of that lane probes the spill first.
//
// A fill hinted at no more ids than FlatIndex's smallest table holds
// (31) is *plain*: its first id opens that table, which then takes every
// id, and no lane opens. Lanes would save such a fill no memory, and
// staging and scanning cost it more than the table does (group_flows'
// per-flow trials, about 24 ids each, are plain).
//
// Nothing allocates before ids arrive. reserve(n) is a hint: the first
// lane takes n slots at once, and the spill table, when the staging
// overflows, is sized for the share of the remaining ids that spilled so
// far. A dense tagged trial costs about 4 B per id; a trial of random
// ids costs what FlatIndex::reserve(n) costs, and so does a trial of more
// than kStaged interleaved senders, whose first ids overflow the staging
// before any lane opens (its lanes then take the ids). clear() is O(1)
// and keeps every buffer for the next fill, so a reused index stops
// allocating once it has seen its largest input.
//
// find() is const and writes nothing, not even the last-lane cache, so
// one index can be read by several threads at once.
//
// census() totals, over the whole process, where the ids of every
// finished fill (ended by clear() or destruction) were stored. A lookup
// of a stored id is answered where the id is stored, so the lane share
// of stored ids is the share of hits a lane answers
// (tests/test_index_census.cpp reports it per workload).
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"

namespace choir::core {

/// 128-bit packet identity (the evaluation trailer, minus its magic).
struct PacketId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const PacketId&, const PacketId&) = default;
};

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
class PacketIdIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  using Inserted = FlatIndex<PacketId, PacketIdHash>::Inserted;

  /// Ids of finished fills, by where they were stored.
  struct Census {
    std::uint64_t lane_ids = 0;     ///< held in a lane
    std::uint64_t spilled_ids = 0;  ///< held only in the spill
  };
  /// Totals over every fill this process has finished so far.
  static Census census();

  /// Id of `id`, assigning the next dense id when it is new.
  Inserted insert(PacketId id) {
    Lane* lane = cached_lane(id.hi);
    if (lane != nullptr) {
      const std::uint64_t d = id.lo - lane->base;
      if (d < lane->span && lane->slots[d] != kNone) {
        return {lane->slots[d], false};
      }
      // A hole in the window, or the next `lo` past it: both stay
      // within the density budget (span <= 2 * count).
      if (!lane->spill_check && d <= lane->span) {
        return {place(*lane, d), true};
      }
    } else if (spill_table_ && (plain_ || !alone(id.hi))) {
      // No lane can open for `hi`: straight into the spill table.
      return table_insert(id);
    }
    return insert_slow(id, lane);
  }

  /// Id of `id`, kNone when absent.
  std::uint32_t find(PacketId id) const {
    const std::uint32_t k = lane_number(id.hi);
    if (k != kNone) {
      const Lane& lane = lanes_[k];
      const std::uint64_t d = id.lo - lane.base;
      if (d < lane.span && lane.slots[d] != kNone) return lane.slots[d];
      // Nothing of this `hi` within the lane's reach has spilled.
      if (!lane.spill_check && d < kReach) return kNone;
    }
    return spill_find(id);
  }

  /// Forget every id in O(1); ids restart at 0. Storage is kept.
  void clear();

  /// Hint that about `n` ids will be inserted in all. Allocates nothing
  /// itself; storage is sized from the hint as ids arrive.
  void reserve(std::size_t n) { hint_ = n; }

  std::size_t size() const { return fill_.ids; }  ///< ids inserted
  /// Ids held only in the spill; the rest sit in lanes.
  std::size_t spilled() const { return fill_.spilled; }

  /// Storage-growth events so far (allocation telemetry for callers).
  std::uint64_t grows() const { return grows_; }

 private:
  /// Spilled ids held inline before the spill table is allocated: up to
  /// kStaged interleaved senders open their lanes without it.
  static constexpr std::size_t kStaged = 16;
  /// Ids the smallest spill table holds. A fill hinted at no more is
  /// plain: its first id opens the table, which takes every id, and no
  /// lane opens.
  static constexpr std::size_t kPlainFill =
      FlatIndex<PacketId, PacketIdHash>::kMinCapacity / 2 - 1;
  /// Past any lane window: a span never exceeds 2 * (2^32 - 1).
  static constexpr std::uint64_t kReach = std::uint64_t{1} << 34;
  /// Buckets of the spill filter. Two spilling senders that share one
  /// keep hashing: of N senders past the staging, about N(N-1)/8192
  /// pairs collide (one pair measured at N = 64).
  static constexpr std::size_t kBuckets = 4096;

  struct Lane {
    std::uint64_t hi = 0;
    std::uint64_t base = 0;      ///< `lo` of slots[0]
    std::uint64_t span = 0;      ///< slots[0, span) is the window
    std::uint64_t capacity = 0;  ///< slots allocated; kept across fills
    std::uint32_t count = 0;     ///< ids held in the window
    bool spill_check = false;    ///< spill may hold ids in reach
    std::unique_ptr<std::uint32_t[]> slots;  ///< dense id by lo - base
  };

  struct Staged {
    PacketId id;
    std::uint32_t dense = kNone;
  };

  /// The current fill's id counts. Its destructor and a move into it add
  /// the fill it ends to the census; a moved-from fill is empty, so every
  /// fill is counted once.
  struct Fill {
    std::size_t ids = 0;
    std::size_t spilled = 0;

    Fill() = default;
    Fill(Fill&& other) noexcept
        : ids(std::exchange(other.ids, 0)),
          spilled(std::exchange(other.spilled, 0)) {}
    Fill& operator=(Fill&& other) noexcept {
      if (this != &other) {
        end();
        ids = std::exchange(other.ids, 0);
        spilled = std::exchange(other.spilled, 0);
      }
      return *this;
    }
    ~Fill() { end(); }
    void end();  ///< count this fill in the census and start a new one
  };

  /// Lane of `hi` (kNone when it has none), without touching the cache.
  std::uint32_t lane_number(std::uint64_t hi) const {
    if (last_lane_ < lane_count_ && lanes_[last_lane_].hi == hi) {
      return last_lane_;
    }
    return lane_count_ == 0 ? kNone : lane_of_.find(hi);
  }

  Lane* cached_lane(std::uint64_t hi) {
    const std::uint32_t k = lane_number(hi);
    if (k == kNone) return nullptr;
    last_lane_ = k;
    return &lanes_[k];
  }

  std::uint32_t next_id() { return static_cast<std::uint32_t>(fill_.ids++); }

  /// Store the next dense id at offset `d` <= span of `lane`.
  std::uint32_t place(Lane& lane, std::uint64_t d) {
    if (d == lane.span) {
      if (d < lane.capacity) {
        ++lane.span;  // slot d is written below
      } else {
        widen(lane, d + 1);
      }
    }
    ++lane.count;
    return lane.slots[d] = next_id();
  }

  std::uint32_t spill_find(PacketId id) const {
    if (spill_table_) return spill_.find(id);
    for (std::size_t k = 0; k < staged_count_; ++k) {
      if (staged_[k].id == id) return staged_[k].dense;
    }
    return kNone;
  }

  std::size_t bucket(std::uint64_t hi) const {
    return U64Hash{}(hi) & (kBuckets - 1);
  }

  bool plain_hint() const { return hint_ > 0 && hint_ <= kPlainFill; }

  /// The filter shows exactly one unlaned spilled id in the bucket of
  /// `hi`, so a lane may open for it.
  bool alone(std::uint64_t hi) const {
    const std::size_t b = bucket(hi);
    return one_[b] && !more_[b];
  }

  /// Count one more unlaned id of `hi` in the spill table's filter.
  void count_spilled(std::uint64_t hi) {
    const std::size_t b = bucket(hi);
    if (one_[b]) more_[b] = true;
    one_[b] = true;
  }

  Inserted insert_slow(PacketId id, Lane* lane);
  Inserted table_insert(PacketId id);
  Inserted insert_laneless(PacketId id);
  Inserted spill_insert(PacketId id);
  Inserted spill_new(PacketId id);
  std::uint32_t open_lane(PacketId id, std::uint32_t predecessor);
  void widen(Lane& lane, std::uint64_t span);
  void unstage();

  std::vector<Lane> lanes_;  ///< first lane_count_ live; the rest keep storage
  std::uint32_t lane_count_ = 0;
  std::uint32_t last_lane_ = kNone;
  FlatIndex<std::uint64_t, U64Hash> lane_of_;  ///< hi -> lane number

  std::array<Staged, kStaged> staged_{};
  std::size_t staged_count_ = 0;
  bool spill_table_ = false;  ///< spilled ids live in spill_, not staged_
  bool plain_ = false;        ///< this fill uses the spill table alone
  FlatIndex<PacketId, PacketIdHash> spill_;  ///< ids numbered by this index
  /// Per bucket of `hi`, the spill table's ids that no lane holds: none,
  /// one (`one_`), more (`one_` and `more_`). Read only once the table
  /// exists; unstage() resets it.
  std::bitset<kBuckets> one_;
  std::bitset<kBuckets> more_;

  Fill fill_;
  std::size_t hint_ = 0;
  std::uint64_t grows_ = 0;
};

}  // namespace choir::core
