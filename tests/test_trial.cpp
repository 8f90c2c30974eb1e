#include "core/trial.hpp"

#include <algorithm>
#include <map>
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

/// Map-based reference for make_occurrences_unique: the k-th repeat of
/// an id (k counted from 0) becomes occurrence_id(id, k).
std::vector<PacketId> occurrences_reference(const Trial& t) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> seen;
  std::vector<PacketId> out;
  for (const TrialPacket& p : t.packets()) {
    out.push_back(occurrence_id(p.id, seen[{p.id.hi, p.id.lo}]++));
  }
  return out;
}

void expect_matches_reference(Trial t) {
  const std::vector<PacketId> expected = occurrences_reference(t);
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    repeats += expected[i] == t[i].id ? 0 : 1;
  }
  EXPECT_EQ(t.make_occurrences_unique(), repeats);
  ASSERT_EQ(t.size(), expected.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(t[i].id, expected[i]) << i;
  }
}

TEST(Trial, OccurrencesMatchReferenceWhenFirstRepeatComesLate) {
  // 5000 distinct ids, then a tail that repeats early, middle and late
  // ids (some many times) between ids seen for the first time.
  Trial t;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    t.push_back(TrialPacket{PacketId{7, i}, static_cast<Ns>(i)});
  }
  for (std::uint64_t k = 0; k < 3000; ++k) {
    const std::uint64_t lo = k % 3 == 0   ? 5000 + k  // a new id
                             : k % 3 == 1 ? (k * 7919) % 5000
                                          : k % 17;
    t.push_back(TrialPacket{PacketId{7, lo}, static_cast<Ns>(5000 + k)});
  }
  expect_matches_reference(t);
}

TEST(Trial, OccurrencesMatchReferenceOnDistinctAndEqualIds) {
  Trial distinct;
  Trial equal;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    distinct.push_back(TrialPacket{PacketId{i * 31, i}, static_cast<Ns>(i)});
    equal.push_back(TrialPacket{PacketId{5, 5}, static_cast<Ns>(i)});
  }
  expect_matches_reference(distinct);
  expect_matches_reference(equal);
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
