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
    EXPECT_EQ(table.classify(key_n(n)), n);
  }
  // Re-classifying returns the existing id, never mints a new one.
  for (std::uint32_t n = 0; n < 100; ++n) {
    EXPECT_EQ(table.classify(key_n(n)), n);
  }
  EXPECT_EQ(table.size(), 100u);
  EXPECT_EQ(table.key_of(7), key_n(7));
}

TEST(FlowTable, SurvivesCollisionHeavyProbeChains) {
  // 20 keys all hashing to the same initial slot: every insert after the
  // first probes through the whole chain. All must stay addressable.
  const auto keys = colliding_keys(20);
  FlowTable table;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.classify(keys[i]), i);
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
    ASSERT_EQ(table.classify(key_n(n)), n);
  }
  EXPECT_EQ(table.size(), kFlows);
  // Load factor stays <= 50% and capacity is a power of two.
  EXPECT_GE(table.capacity(), 2u * kFlows);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  // Spot-check lookups across the whole range after all the rehashing.
  for (std::uint32_t n = 0; n < kFlows; n += 997) {
    EXPECT_EQ(table.lookup(key_n(n)), n);
    EXPECT_EQ(table.key_of(n), key_n(n));
  }
}

TEST(FlowTable, ReservePreallocatesCapacity) {
  FlowTable table;
  table.reserve(100'000);
  const std::size_t capacity = table.capacity();
  EXPECT_GE(capacity, 2u * 100'000u);
  for (std::uint32_t n = 0; n < 100'000; ++n) {
    table.classify(key_n(n));
  }
  EXPECT_EQ(table.capacity(), capacity) << "reserve() should pre-size";
}

}  // namespace
}  // namespace choir::flow
