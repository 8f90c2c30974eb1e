// FlatIndex property tests against a std::unordered_map oracle: random
// keys, keys that all collide, growth from 64 to 2^17 slots, reserve()
// sizing, clear() across an epoch wrap, and duplicate inserts. The
// oracle assigns each new key the next dense id, which is the whole
// FlatIndex contract.
#include "common/flat_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace choir {
namespace {

struct MixHash {
  std::size_t operator()(std::uint64_t x) const {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// Every key hashes to slot 0: one maximal probe chain.
struct CollideHash {
  std::size_t operator()(std::uint64_t) const { return 0; }
};

using Oracle = std::unordered_map<std::uint64_t, std::uint32_t>;

template <typename Index>
void insert_both(Index& index, Oracle& oracle, std::uint64_t key) {
  const auto [id, fresh] = index.insert(key);
  const auto next = static_cast<std::uint32_t>(oracle.size());
  const auto [it, added] = oracle.try_emplace(key, next);
  ASSERT_EQ(fresh, added) << "key " << key;
  ASSERT_EQ(id, it->second) << "key " << key;
}

template <typename Index>
void expect_matches(const Index& index, const Oracle& oracle,
                    std::uint64_t key_bound) {
  ASSERT_EQ(index.size(), oracle.size());
  for (std::uint64_t key = 0; key < key_bound; ++key) {
    const auto it = oracle.find(key);
    const std::uint32_t want = it == oracle.end() ? Index::kNone : it->second;
    ASSERT_EQ(index.find(key), want) << "key " << key;
  }
}

TEST(FlatIndex, RandomKeysMatchOracle) {
  Rng rng(1);
  FlatIndex<std::uint64_t, MixHash> index;
  Oracle oracle;
  EXPECT_EQ(index.find(7), (FlatIndex<std::uint64_t, MixHash>::kNone));
  for (int i = 0; i < 20000; ++i) {
    insert_both(index, oracle, rng.uniform_u64(5000));  // many repeats
  }
  expect_matches(index, oracle, 6000);
}

TEST(FlatIndex, AllCollidingKeysResolve) {
  Rng rng(2);
  FlatIndex<std::uint64_t, CollideHash> index;
  Oracle oracle;
  for (int i = 0; i < 2000; ++i) {
    insert_both(index, oracle, rng.uniform_u64(600));
  }
  expect_matches(index, oracle, 700);
}

TEST(FlatIndex, GrowsFrom64To2To17Slots) {
  FlatIndex<std::uint64_t, MixHash> index;
  Oracle oracle;
  EXPECT_EQ(index.capacity(), 0u);
  std::vector<std::size_t> capacities;
  for (std::uint64_t key = 0; key < (1u << 16) - 1; ++key) {
    insert_both(index, oracle, key * 0x9e3779b97f4a7c15ULL);
    if (capacities.empty() || capacities.back() != index.capacity()) {
      capacities.push_back(index.capacity());
    }
    ASSERT_LE(2 * index.size(), index.capacity());  // load <= 1/2
  }
  ASSERT_EQ(capacities.size(), 12u);
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    EXPECT_EQ(capacities[i], std::size_t{64} << i);
  }
  EXPECT_EQ(index.capacity(), std::size_t{1} << 17);
  // Every key keeps its first-insert id across the eleven rehashes.
  for (const auto& [key, id] : oracle) ASSERT_EQ(index.find(key), id);
}

TEST(FlatIndex, ClearAcrossEpochWrap) {
  // An 8-bit epoch wraps every 255 clears; 1000 rounds cross it three
  // times, with occasional large rounds leaving stale stamps past the
  // minimum capacity that later growth re-exposes.
  FlatIndex<std::uint64_t, MixHash, std::uint8_t> index;
  Rng rng(3);
  for (int round = 0; round < 1000; ++round) {
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.capacity(), round == 0 ? 0u : 64u);
    Oracle oracle;
    const int keys = round % 97 == 0 ? 3000 : 20;
    for (int k = 0; k < keys; ++k) {
      insert_both(index, oracle, rng.uniform_u64(4000));
    }
    expect_matches(index, oracle, 4000);
  }
}

TEST(FlatIndex, DuplicateInsertKeepsFirstId) {
  FlatIndex<std::uint64_t, MixHash> index;
  const auto a = index.insert(11);
  const auto b = index.insert(22);
  const auto again = index.insert(11);
  EXPECT_TRUE(a.fresh);
  EXPECT_TRUE(b.fresh);
  EXPECT_FALSE(again.fresh);
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(again.id, 0u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(FlatIndex, ReserveOfAPowerOfTwoTakesTwiceItsSlots) {
  // n keys fit in 2n slots (load <= 1/2), so reserving 2^16 keys takes
  // 2^17 slots and the 2^16 inserts that follow never rehash.
  FlatIndex<std::uint64_t, MixHash> index;
  EXPECT_TRUE(index.reserve(std::size_t{1} << 16));
  EXPECT_EQ(index.capacity(), std::size_t{1} << 17);
  for (std::uint64_t key = 0; key < (1u << 16); ++key) {
    index.insert(key * 0x9e3779b97f4a7c15ULL);
    ASSERT_EQ(index.capacity(), std::size_t{1} << 17) << "key " << key;
  }
  EXPECT_EQ(index.size(), std::size_t{1} << 16);
}

TEST(FlatIndex, ReserveGrowsStorageOnlyPastTheHighWaterMark) {
  FlatIndex<std::uint64_t, MixHash> index;
  EXPECT_TRUE(index.reserve(1000));  // first storage allocation
  EXPECT_GE(index.capacity(), 2u * 1001u);
  for (std::uint64_t key = 0; key < 1000; ++key) index.insert(key);
  const std::size_t capacity = index.capacity();
  EXPECT_EQ(capacity, 2048u);  // reserve() pre-sized: no rehash
  index.clear();
  EXPECT_EQ(index.capacity(), 64u);  // cleared tables probe a small prefix
  EXPECT_FALSE(index.reserve(500));  // fits the retained storage
  EXPECT_FALSE(index.reserve(1000));
  EXPECT_EQ(index.find(5), (FlatIndex<std::uint64_t, MixHash>::kNone));
}

}  // namespace
}  // namespace choir
