// Flow-sharded classification with deterministic merge.
//
// A FlowShardSet partitions the key space over N FlowTables by the high
// bits of the key hash (the tables index slots with the low bits, so the
// two stay independent). Shards are what lets the record/compare path
// fan out across the task pool: each worker owns whole shards, so no
// table is ever touched by two threads, and per-shard telemetry
// (`flow.<shard>.…`) falls out for free.
//
// Determinism contract (the same one telemetry::Registry::merge_from and
// SpanProfiler::merge_from follow): merging worker-private sets in
// submission order, then enumerating flows by first arrival index via
// merged_flows(), yields the exact same global view — same flows, same
// order, same counters — as a single sequential classifier, for ANY
// shard count and ANY job count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "flow/flow_table.hpp"

namespace choir::flow {

/// Shard owning `key` among `shards` partitions. High hash bits:
/// decorrelated from the tables' slot indexing (low bits).
inline int shard_of_key(const FlowKey& key, int shards) {
  return static_cast<int>((hash_of(key) >> 32) %
                          static_cast<std::uint64_t>(shards));
}

class FlowShardSet {
 public:
  explicit FlowShardSet(int shards) : tables_(check_shards(shards)) {}

  int shards() const { return static_cast<int>(tables_.size()); }

  int shard_of(const FlowKey& key) const {
    return shard_of_key(key, shards());
  }

  FlowTable& shard(int s) { return tables_[static_cast<std::size_t>(s)]; }
  const FlowTable& shard(int s) const {
    return tables_[static_cast<std::size_t>(s)];
  }

  /// Classify through the owning shard. Returns the shard-local id (pair
  /// it with shard_of(key) to address the flow globally).
  FlowId classify(const FlowKey& key, std::uint32_t wire_len, Ns timestamp,
                  std::uint64_t arrival_index) {
    return shard(shard_of(key))
        .classify(key, wire_len, timestamp, arrival_index);
  }

  /// Flows across all shards.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& t : tables_) n += t.size();
    return n;
  }

  /// Fold another set's flows into this one, shard by shard (the shard
  /// counts must match). Counters of shared keys merge; new keys insert
  /// in `other`'s id order.
  void merge_from(const FlowShardSet& other) {
    CHOIR_EXPECT(other.shards() == shards(),
                 "FlowShardSet::merge_from needs matching shard counts");
    for (int s = 0; s < shards(); ++s) {
      const FlowTable& from = other.shard(s);
      FlowTable& into = shard(s);
      for (FlowId id = 0; id < from.size(); ++id) {
        into.merge_entry(from.key_of(id), from.stats_of(id));
      }
    }
  }

 private:
  static std::size_t check_shards(int shards) {
    CHOIR_EXPECT(shards >= 1, "FlowShardSet needs at least one shard");
    return static_cast<std::size_t>(shards);
  }

  std::vector<FlowTable> tables_;
};

/// One row of the merged global view.
struct GlobalFlow {
  FlowKey key;
  int shard = 0;
  FlowId local_id = kNoFlow;  ///< id within its shard's table
  FlowTable::FlowStats stats;
};

/// Deterministic global enumeration: every flow across the shards,
/// ordered by first arrival (ties — possible only after merging sets
/// from independent captures — break on the key tuple). For a set fed
/// from one packet stream this is exactly the first-seen order a single
/// unsharded FlowTable would have assigned.
std::vector<GlobalFlow> merged_flows(const FlowShardSet& set);

}  // namespace choir::flow
