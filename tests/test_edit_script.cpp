#include "core/edit_script.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "reordering.hpp"  // the one-shot align_trials(a, b)

namespace choir::core {
namespace {

Trial make_trial(const std::vector<std::uint64_t>& ids, Ns gap = 100) {
  Trial t;
  Ns now = 0;
  for (const auto id : ids) {
    t.push_back(TrialPacket{PacketId{0, id}, now});
    now += gap;
  }
  return t;
}

TEST(Alignment, IdenticalTrials) {
  const Trial a = make_trial({1, 2, 3, 4, 5});
  const Alignment al = align_trials(a, a);
  EXPECT_EQ(al.common(), 5u);
  EXPECT_EQ(al.lcs_length, 5u);
  EXPECT_TRUE(al.moves.empty());
  EXPECT_EQ(al.missing_from_b(), 0u);
  EXPECT_EQ(al.extra_in_b(), 0u);
}

TEST(Alignment, DisjointTrials) {
  const Alignment al =
      align_trials(make_trial({1, 2, 3}), make_trial({4, 5, 6}));
  EXPECT_EQ(al.common(), 0u);
  EXPECT_EQ(al.lcs_length, 0u);
  EXPECT_EQ(al.missing_from_b(), 3u);
  EXPECT_EQ(al.extra_in_b(), 3u);
}

TEST(Alignment, DropDetected) {
  const Alignment al =
      align_trials(make_trial({1, 2, 3, 4}), make_trial({1, 2, 4}));
  EXPECT_EQ(al.common(), 3u);
  EXPECT_EQ(al.lcs_length, 3u);
  EXPECT_TRUE(al.moves.empty());
  EXPECT_EQ(al.missing_from_b(), 1u);
}

TEST(Alignment, ExtraPacketInB) {
  const Alignment al =
      align_trials(make_trial({1, 2, 3}), make_trial({1, 9, 2, 3}));
  EXPECT_EQ(al.common(), 3u);
  EXPECT_EQ(al.extra_in_b(), 1u);
  EXPECT_TRUE(al.moves.empty());
}

TEST(Alignment, AdjacentSwapMovesOnePacket) {
  const Alignment al =
      align_trials(make_trial({1, 2, 3, 4}), make_trial({1, 3, 2, 4}));
  EXPECT_EQ(al.lcs_length, 3u);
  ASSERT_EQ(al.moves.size(), 1u);
  EXPECT_EQ(std::abs(al.moves[0].displacement), 1);
}

TEST(Alignment, ReversalMovesAllButOne) {
  const Alignment al =
      align_trials(make_trial({1, 2, 3, 4, 5}), make_trial({5, 4, 3, 2, 1}));
  EXPECT_EQ(al.lcs_length, 1u);
  EXPECT_EQ(al.moves.size(), 4u);
}

TEST(Alignment, DisplacementIsSigned) {
  // Packet 5 moved from index 4 in B to index 0 in A: displacement -4...
  // by our convention displacement = index_a - index_b.
  const Alignment al =
      align_trials(make_trial({9, 1, 2, 3, 5}), make_trial({1, 2, 3, 5, 9}));
  // LCS is {1,2,3,5}; packet 9 moves from index 4 (B) to index 0 (A).
  ASSERT_EQ(al.moves.size(), 1u);
  EXPECT_EQ(al.moves[0].index_b, 4u);
  EXPECT_EQ(al.moves[0].index_a, 0u);
  EXPECT_EQ(al.moves[0].displacement, -4);
}

TEST(Alignment, TotalAbsDisplacementSums) {
  const Alignment al =
      align_trials(make_trial({1, 2, 3, 4, 5}), make_trial({5, 4, 3, 2, 1}));
  // Moves are 4 of the 5 packets; |d| depends on which anchor the LIS
  // picked but the sum is invariant for the reversal: the anchor packet
  // contributes 0 and the rest |index_a - index_b|.
  double expected = 0;
  for (const Move& m : al.moves) {
    expected += std::abs(static_cast<double>(m.displacement));
  }
  EXPECT_DOUBLE_EQ(al.total_abs_displacement(), expected);
  EXPECT_GT(al.total_abs_displacement(), 0.0);
}

TEST(Alignment, BlockSwapMovesWholeBurst) {
  // Two "bursts" swap order: 1,2,3 | 4,5,6 -> 4,5,6 | 1,2,3. The paper
  // observes exactly this whole-burst movement in Section 6.2.
  const Alignment al = align_trials(make_trial({1, 2, 3, 4, 5, 6}),
                                    make_trial({4, 5, 6, 1, 2, 3}));
  EXPECT_EQ(al.lcs_length, 3u);
  ASSERT_EQ(al.moves.size(), 3u);
  // All moved packets travelled the same distance, as a block.
  for (const Move& m : al.moves) {
    EXPECT_EQ(std::abs(m.displacement), 3);
  }
}

TEST(Alignment, RejectsDuplicateIdsInA) {
  const Trial dup = make_trial({1, 1, 2});
  EXPECT_THROW(align_trials(dup, make_trial({1, 2})), Error);
}

TEST(Alignment, RejectsDuplicateIdsInB) {
  EXPECT_THROW(align_trials(make_trial({1, 2}), make_trial({2, 2})), Error);
}

TEST(Alignment, EmptyTrials) {
  const Alignment al = align_trials(Trial{}, Trial{});
  EXPECT_EQ(al.common(), 0u);
  EXPECT_EQ(al.size_a, 0u);
  EXPECT_EQ(al.size_b, 0u);
}

TEST(Alignment, MatchesAreInBOrder) {
  const Alignment al =
      align_trials(make_trial({3, 1, 2}), make_trial({1, 2, 3}));
  ASSERT_EQ(al.matches.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(al.matches[k].index_b, k);
  }
}

TEST(Alignment, LcsFlagsConsistentWithMoves) {
  const Alignment al = align_trials(make_trial({1, 2, 3, 4, 5, 6, 7, 8}),
                                    make_trial({2, 1, 4, 3, 6, 5, 8, 7}));
  std::size_t on_lcs = 0;
  for (const auto& m : al.matches) on_lcs += m.on_lcs ? 1 : 0;
  EXPECT_EQ(on_lcs, al.lcs_length);
  EXPECT_EQ(al.moves.size(), al.common() - al.lcs_length);
}

}  // namespace
}  // namespace choir::core
