// FlowTable adversarial coverage: the classifier under the conditions
// that break naive tables — long probe chains from colliding keys and
// growth to the 100k-flow scale the bench suite runs at. The dense-id
// contract (n-th distinct key gets id n) is what the demux and per-flow
// κ layers index by, so it is asserted throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flow/flow_key.hpp"
#include "flow/flow_table.hpp"

namespace choir::flow {
namespace {

FlowKey key_n(std::uint32_t n) {
  // Mirrors gen::MultiFlowGenerator's address fan-out: 16384 ports per
  // source address, all distinct tuples.
  FlowKey key;
  key.src_ip = (10u << 24) | 1u | ((n / 16384u) << 8);
  key.dst_ip = (10u << 24) | 4u;
  key.src_port = static_cast<std::uint16_t>(7000u + n % 16384u);
  key.dst_port = 7001;
  return key;
}

/// Keys whose hashes all land on slot 0 of a fresh (64-slot) table: one
/// maximal probe chain.
std::vector<FlowKey> colliding_keys(std::size_t count) {
  std::vector<FlowKey> keys;
  for (std::uint32_t stream = 0; keys.size() < count; ++stream) {
    FlowKey key = key_n(0);
    key.stream = stream;
    if ((hash_of(key) & 63u) == 0u) keys.push_back(key);
  }
  return keys;
}

TEST(FlowTable, AssignsDenseIdsInFirstSeenOrder) {
  FlowTable table;
  EXPECT_EQ(table.lookup(key_n(0)), kNoFlow);  // empty-table probe
  for (std::uint32_t n = 0; n < 100; ++n) {
    EXPECT_EQ(table.classify(key_n(n), 100 + n, Ns{n}, n), n);
  }
  // Re-classifying folds into the existing id, never mints a new one.
  for (std::uint32_t n = 0; n < 100; ++n) {
    EXPECT_EQ(table.classify(key_n(n), 10, Ns{1000 + n}, 100 + n), n);
  }
  EXPECT_EQ(table.size(), 100u);
  const auto& st = table.stats_of(7);
  EXPECT_EQ(st.packets, 2u);
  EXPECT_EQ(st.bytes, 107u + 10u);
  EXPECT_EQ(st.first_index, 7u);
  EXPECT_EQ(st.first_seen, 7);
  EXPECT_EQ(st.last_seen, 1007);
  EXPECT_EQ(table.key_of(7), key_n(7));
}

TEST(FlowTable, SurvivesCollisionHeavyProbeChains) {
  // 20 keys all hashing to the same initial slot: every insert after the
  // first probes through the whole chain. All must stay addressable.
  const auto keys = colliding_keys(20);
  FlowTable table;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.classify(keys[i], 64, Ns{i}, i), i);
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.lookup(keys[i]), i);
  }
  EXPECT_EQ(table.lookup(key_n(1)), kNoFlow);
}

TEST(FlowTable, GrowsTo100kFlows) {
  constexpr std::uint32_t kFlows = 100'000;
  FlowTable table;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    ASSERT_EQ(table.classify(key_n(n), 100, Ns{n}, n), n);
  }
  EXPECT_EQ(table.size(), kFlows);
  // Load factor stays <= 50% and capacity is a power of two.
  EXPECT_GE(table.capacity(), 2u * kFlows);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  // Spot-check lookups across the whole range after all the rehashing.
  for (std::uint32_t n = 0; n < kFlows; n += 997) {
    EXPECT_EQ(table.lookup(key_n(n)), n);
    EXPECT_EQ(table.stats_of(n).first_index, n);
  }
}

TEST(FlowTable, ReservePreallocatesCapacity) {
  FlowTable table;
  table.reserve(100'000);
  const std::size_t capacity = table.capacity();
  EXPECT_GE(capacity, 2u * 100'000u);
  for (std::uint32_t n = 0; n < 100'000; ++n) {
    table.classify(key_n(n), 64, 0, n);
  }
  EXPECT_EQ(table.capacity(), capacity) << "reserve() should pre-size";
}

TEST(FlowTable, MergeEntryFoldsCountersByEarliestArrival) {
  FlowTable table;
  table.classify(key_n(0), 100, Ns{50}, 5);
  table.classify(key_n(0), 100, Ns{60}, 6);

  FlowTable::FlowStats other;
  other.packets = 3;
  other.bytes = 300;
  other.first_index = 2;  // earlier than the resident entry
  other.first_seen = 20;
  other.last_seen = 999;
  table.merge_entry(key_n(0), other);

  const auto& st = table.stats_of(0);
  EXPECT_EQ(st.packets, 5u);
  EXPECT_EQ(st.bytes, 500u);
  EXPECT_EQ(st.first_index, 2u);  // min() semantics
  EXPECT_EQ(st.first_seen, 20);
  EXPECT_EQ(st.last_seen, 999);

  // Merging an unseen key inserts it verbatim with the next dense id.
  table.merge_entry(key_n(1), other);
  EXPECT_EQ(table.lookup(key_n(1)), 1u);
  EXPECT_EQ(table.stats_of(1).packets, 3u);
  EXPECT_EQ(table.stats_of(1).first_index, 2u);
}

}  // namespace
}  // namespace choir::flow
