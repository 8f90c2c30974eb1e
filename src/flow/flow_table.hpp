// Flow classifier for the record path: flow key -> dense FlowId, plus
// per-flow counters.
//
// The key index is a FlatIndex (common/flat_index.hpp), so the common
// case — a packet of an already-seen flow — is one probe. Its dense ids
// are the FlowIds: the n-th distinct key ever classified gets id n, so
// ids are a deterministic function of arrival order and downstream
// layers (demux, per-flow κ, aggregation) use plain vectors indexed by
// FlowId instead of hash lookups. Flows are never evicted; every id is
// live.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_index.hpp"
#include "common/units.hpp"
#include "flow/flow_key.hpp"

namespace choir::flow {

class FlowTable {
 public:
  struct FlowStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    /// Arrival index of the flow's first packet (the classify() caller's
    /// running packet count). This is what makes cross-shard merges
    /// deterministic: ids can be re-derived from first arrival no matter
    /// how the flows were partitioned.
    std::uint64_t first_index = 0;
    Ns first_seen = 0;
    Ns last_seen = 0;
  };

  /// Size the key index for an expected flow count (optional; the table
  /// grows itself).
  void reserve(std::size_t flows) { index_.reserve(flows); }

  /// The hot path: look up `key`, assigning the next dense id when it is
  /// new, and fold the packet into the flow's counters. `arrival_index`
  /// is the caller's running packet count (used only for first_index).
  FlowId classify(const FlowKey& key, std::uint32_t wire_len, Ns timestamp,
                  std::uint64_t arrival_index) {
    const auto [id, fresh] = index_.insert(key);
    if (fresh) {
      keys_.push_back(key);
      FlowStats st;
      st.first_index = arrival_index;
      st.first_seen = timestamp;
      stats_.push_back(st);
    }
    FlowStats& st = stats_[id];
    ++st.packets;
    st.bytes += wire_len;
    st.last_seen = timestamp;
    return id;
  }

  /// Read-only lookup; kNoFlow when the key is absent.
  FlowId lookup(const FlowKey& key) const { return index_.find(key); }

  /// Merge one flow's counters from another table (same key may carry a
  /// different id there). Used by FlowShardSet::merge_from.
  void merge_entry(const FlowKey& key, const FlowStats& other) {
    const auto [id, fresh] = index_.insert(key);
    if (fresh) {
      keys_.push_back(key);
      stats_.push_back(other);
      return;
    }
    FlowStats& st = stats_[id];
    st.packets += other.packets;
    st.bytes += other.bytes;
    if (other.first_index < st.first_index) {
      st.first_index = other.first_index;
      st.first_seen = other.first_seen;
    }
    if (other.last_seen > st.last_seen) st.last_seen = other.last_seen;
  }

  std::size_t size() const { return keys_.size(); }  ///< flows (= ids)
  std::size_t capacity() const { return index_.capacity(); }
  const FlowKey& key_of(FlowId id) const { return keys_[id]; }
  const FlowStats& stats_of(FlowId id) const { return stats_[id]; }

 private:
  FlatIndex<FlowKey, FlowKeyHash> index_;
  std::vector<FlowKey> keys_;    ///< by FlowId
  std::vector<FlowStats> stats_; ///< by FlowId
};

}  // namespace choir::flow
