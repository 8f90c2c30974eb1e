#include "core/packet_id_index.hpp"

#include <algorithm>
#include <atomic>

namespace choir::core {

namespace {
std::atomic<std::uint64_t> g_lane_ids{0};
std::atomic<std::uint64_t> g_spilled_ids{0};
}  // namespace

PacketIdIndex::Census PacketIdIndex::census() {
  return {g_lane_ids.load(std::memory_order_relaxed),
          g_spilled_ids.load(std::memory_order_relaxed)};
}

void PacketIdIndex::Fill::end() {
  if (ids > spilled) {
    g_lane_ids.fetch_add(ids - spilled, std::memory_order_relaxed);
  }
  if (spilled > 0) g_spilled_ids.fetch_add(spilled, std::memory_order_relaxed);
  ids = 0;
  spilled = 0;
}

void PacketIdIndex::clear() {
  fill_.end();
  hint_ = 0;
  lane_count_ = 0;
  last_lane_ = kNone;
  lane_of_.clear();
  staged_count_ = 0;
  spill_table_ = false;
  plain_ = false;
  spill_.clear();
}

// The id is absent from its lane's window, or its lane must probe the
// spill first, or it has no lane at all.
PacketIdIndex::Inserted PacketIdIndex::insert_slow(PacketId id, Lane* lane) {
  if (lane == nullptr) return insert_laneless(id);
  const std::uint64_t d = id.lo - lane->base;
  if (lane->spill_check) {
    const std::uint32_t spilled = spill_find(id);
    if (spilled != kNone) return {spilled, false};
  }
  if (d <= lane->span) return {place(*lane, d), true};
  if (d < 2 * (std::uint64_t{lane->count} + 1)) {  // span <= 2 * count
    widen(*lane, d + 1);
    return {place(*lane, d), true};
  }
  // Too sparse for the lane, or below its base.
  if (d < kReach) lane->spill_check = true;
  return spill_insert(id);
}

PacketIdIndex::Inserted PacketIdIndex::insert_laneless(PacketId id) {
  const PacketId predecessor{id.hi, id.lo - 1};
  if (spill_table_) {
    // insert() comes here only when the filter shows one unlaned spilled
    // id in the bucket of `hi`: a lane opens if it is the predecessor.
    const std::uint32_t found = spill_.find(id);
    if (found != kNone) return {found, false};
    const std::uint32_t first = spill_.find(predecessor);
    if (first == kNone) return table_insert(id);
    one_[bucket(id.hi)] = false;
    --fill_.spilled;
    return {open_lane(id, first), true};
  }
  // One scan finds the id itself, its predecessor, and any other staged
  // id of this `hi` that a lane opened at the predecessor could reach.
  std::size_t at = kStaged;
  bool blocked = false;
  for (std::size_t k = 0; k < staged_count_; ++k) {
    const PacketId s = staged_[k].id;
    if (s.hi != id.hi) continue;
    if (s.lo == id.lo) return {staged_[k].dense, false};
    if (s.lo == predecessor.lo) {
      at = k;
    } else if (s.lo - predecessor.lo < kReach) {
      blocked = true;
    }
  }
  if (at == kStaged || blocked) return spill_new(id);
  const std::uint32_t first = staged_[at].dense;
  staged_[at] = staged_[--staged_count_];
  --fill_.spilled;
  return {open_lane(id, first), true};
}

PacketIdIndex::Inserted PacketIdIndex::spill_insert(PacketId id) {
  if (!spill_table_) {
    for (std::size_t k = 0; k < staged_count_; ++k) {
      if (staged_[k].id == id) return {staged_[k].dense, false};
    }
  }
  return spill_new(id);
}

// Spill `id`, which no staged id equals (the table still checks itself).
PacketIdIndex::Inserted PacketIdIndex::spill_new(PacketId id) {
  if (!spill_table_) {
    if (staged_count_ < kStaged && !plain_hint()) {
      const std::uint32_t dense = next_id();
      staged_[staged_count_++] = Staged{id, dense};
      ++fill_.spilled;
      return {dense, true};
    }
    unstage();
  }
  return table_insert(id);
}

// insert() into the spill table, which exists.
PacketIdIndex::Inserted PacketIdIndex::table_insert(PacketId id) {
  if (2 * (spill_.size() + 1) > spill_.capacity()) {
    grows_ += spill_.reserve(spill_.size() + 1);
  }
  const Inserted hit =
      spill_.insert(id, static_cast<std::uint32_t>(fill_.ids));
  if (hit.fresh) {
    ++fill_.ids;
    ++fill_.spilled;
    if (!plain_) count_spilled(id.hi);
  }
  return hit;
}

// Move the staged ids into the spill table, sized for the share of the
// remaining hinted ids that spilled so far (the staged ones plus the id
// that overflowed them). A plain fill's table is FlatIndex's smallest,
// and it keeps no filter.
void PacketIdIndex::unstage() {
  const std::uint64_t spilled = staged_count_ + 1;
  const std::uint64_t seen = fill_.ids + 1;
  const std::uint64_t remaining = hint_ > seen ? hint_ - seen : 0;
  grows_ += spill_.reserve(spilled + remaining * spilled / seen);
  plain_ = plain_hint();
  if (!plain_) {
    one_.reset();
    more_.reset();
  }
  for (std::size_t k = 0; k < staged_count_; ++k) {
    spill_.insert(staged_[k].id, staged_[k].dense);
    count_spilled(staged_[k].id.hi);
  }
  staged_count_ = 0;
  spill_table_ = true;
}

// Open a lane at the predecessor (dense id `predecessor`) of `id`.
std::uint32_t PacketIdIndex::open_lane(PacketId id,
                                       std::uint32_t predecessor) {
  grows_ += lane_of_.reserve(lane_of_.size() + 1);
  lane_of_.insert(id.hi);
  if (lane_count_ == lanes_.size()) {
    if (lanes_.size() == lanes_.capacity()) ++grows_;
    lanes_.emplace_back();
  }
  Lane& lane = lanes_[lane_count_];
  last_lane_ = lane_count_++;
  lane.hi = id.hi;
  lane.base = id.lo - 1;
  lane.count = 2;
  lane.spill_check = false;
  lane.span = 0;
  widen(lane, 2);
  lane.slots[0] = predecessor;
  return lane.slots[1] = next_id();
}

// Widen the window of `lane` to `span` slots, the new ones empty.
void PacketIdIndex::widen(Lane& lane, std::uint64_t span) {
  if (span > lane.capacity) {
    std::uint64_t capacity = std::max(span, 2 * lane.capacity);
    // The first lane takes the whole hint at once: one allocation for a
    // trial from a single sender. Slots are left uninitialised, so pages
    // no window reaches are never touched.
    if (&lane == &lanes_.front()) {
      capacity = std::max<std::uint64_t>(capacity, hint_);
    }
    auto slots = std::make_unique_for_overwrite<std::uint32_t[]>(capacity);
    std::copy_n(lane.slots.get(), lane.span, slots.get());
    lane.slots = std::move(slots);
    lane.capacity = capacity;
    ++grows_;
  }
  std::fill(lane.slots.get() + lane.span, lane.slots.get() + span, kNone);
  lane.span = span;
}

}  // namespace choir::core
