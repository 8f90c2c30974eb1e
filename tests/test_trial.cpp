#include "core/trial.hpp"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace choir::core {
namespace {

/// Oracle: true if no id occurs twice.
bool ids_unique(const Trial& t) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const TrialPacket& p : t.packets()) {
    if (!seen.emplace(p.id.hi, p.id.lo).second) return false;
  }
  return true;
}

TEST(Trial, BasicAccessors) {
  Trial t;
  EXPECT_TRUE(t.empty());
  t.push_back(TrialPacket{PacketId{1, 2}, 100});
  t.push_back(TrialPacket{PacketId{1, 3}, 350});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.first_time(), 100);
  EXPECT_EQ(t.last_time(), 350);
  EXPECT_EQ(t.duration(), 250);
}

TEST(Trial, IdsUniqueDetectsDuplicates) {
  Trial t;
  t.push_back(TrialPacket{PacketId{1, 1}, 0});
  t.push_back(TrialPacket{PacketId{1, 2}, 1});
  EXPECT_TRUE(ids_unique(t));
  t.push_back(TrialPacket{PacketId{1, 1}, 2});
  EXPECT_FALSE(ids_unique(t));
  EXPECT_EQ(t.make_occurrences_unique(), 1u);
  EXPECT_TRUE(ids_unique(t));
}

TEST(Trial, OccurrenceTaggingMakesIdsUnique) {
  Trial t;
  for (int i = 0; i < 5; ++i) {
    t.push_back(TrialPacket{PacketId{9, 9}, i * 10});
  }
  EXPECT_EQ(t.make_occurrences_unique(), 4u);  // first stays untouched
  EXPECT_TRUE(ids_unique(t));
}

TEST(Trial, OccurrenceTaggingIsStable) {
  // Same duplicate sequence tags identically in two trials, so the k-th
  // occurrence in A matches the k-th in B (Section 3's construction).
  auto build = [] {
    Trial t;
    t.push_back(TrialPacket{PacketId{1, 5}, 0});
    t.push_back(TrialPacket{PacketId{1, 5}, 10});
    t.push_back(TrialPacket{PacketId{1, 6}, 20});
    t.push_back(TrialPacket{PacketId{1, 5}, 30});
    t.make_occurrences_unique();
    return t;
  };
  const Trial a = build();
  const Trial b = build();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(Trial, OccurrenceTaggingNoopOnUniqueIds) {
  Trial t;
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.push_back(TrialPacket{PacketId{0, i}, static_cast<Ns>(i)});
  }
  EXPECT_EQ(t.make_occurrences_unique(), 0u);
}

TEST(PacketId, EqualityAndHash) {
  const PacketId a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  PacketIdHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but true here
}

TEST(PacketIdHash, SpreadsSequentialIds) {
  PacketIdHash h;
  std::size_t collisions = 0;
  std::vector<std::size_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.push_back(h(PacketId{0, i}) % 4096);
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (seen[i] == seen[i - 1]) ++collisions;
  }
  EXPECT_LT(collisions, 300u);  // far from degenerate
}

}  // namespace
}  // namespace choir::core
