// Flow classifier: flow key -> dense FlowId.
//
// The key index is a FlatIndex (common/flat_index.hpp), so the common
// case — a packet of an already-seen flow — is one probe. Its dense ids
// are the FlowIds: the n-th distinct key ever classified gets id n, so
// ids are a deterministic function of arrival order and downstream
// layers (demux, per-flow κ, aggregation) use plain vectors indexed by
// FlowId instead of hash lookups. Flows are never evicted; every id is
// live.
#pragma once

#include <vector>

#include "common/flat_index.hpp"
#include "flow/flow_key.hpp"

namespace choir::flow {

class FlowTable {
 public:
  /// Size the key index for an expected flow count (optional; the table
  /// grows itself).
  void reserve(std::size_t flows) { index_.reserve(flows); }

  /// The hot path: the id of `key`, assigning the next dense id when it
  /// is new.
  FlowId classify(const FlowKey& key) {
    const auto [id, fresh] = index_.insert(key);
    if (fresh) keys_.push_back(key);
    return id;
  }

  /// Read-only lookup; kNoFlow when the key is absent.
  FlowId lookup(const FlowKey& key) const { return index_.find(key); }

  std::size_t size() const { return keys_.size(); }  ///< flows (= ids)
  std::size_t capacity() const { return index_.capacity(); }
  const FlowKey& key_of(FlowId id) const { return keys_[id]; }

 private:
  FlatIndex<FlowKey, FlowKeyHash> index_;
  std::vector<FlowKey> keys_;  ///< by FlowId
};

}  // namespace choir::flow
