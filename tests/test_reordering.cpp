#include "reordering.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace choir::core {
namespace {

Trial make_trial(const std::vector<std::uint64_t>& ids) {
  Trial t;
  Ns now = 0;
  for (const auto id : ids) {
    t.push_back(TrialPacket{PacketId{0, id}, now});
    now += 100;
  }
  return t;
}

TEST(ReorderBySpacing, ZeroForIdenticalOrder) {
  const Trial a = make_trial({1, 2, 3, 4, 5, 6});
  const auto al = align_trials(a, a);
  const auto r = reorder_probability_by_spacing(al, 3);
  for (const double p : r.probability) EXPECT_EQ(p, 0.0);
  EXPECT_EQ(r.pairs_reordered, 0u);
  EXPECT_GT(r.pairs_examined, 0u);
}

TEST(ReorderBySpacing, AdjacentSwapOnlyAffectsSpacingOne) {
  const auto al =
      align_trials(make_trial({1, 2, 3, 4}), make_trial({2, 1, 3, 4}));
  const auto r = reorder_probability_by_spacing(al, 3);
  // Spacing 1: pairs (1,2) reordered -> 1 of 3.
  EXPECT_NEAR(r.probability[0], 1.0 / 3.0, 1e-12);
  EXPECT_EQ(r.probability[1], 0.0);
  EXPECT_EQ(r.probability[2], 0.0);
}

TEST(ReorderBySpacing, FullReversalIsCertain) {
  const auto al = align_trials(make_trial({1, 2, 3, 4, 5}),
                               make_trial({5, 4, 3, 2, 1}));
  const auto r = reorder_probability_by_spacing(al, 4);
  for (const double p : r.probability) EXPECT_EQ(p, 1.0);
}

TEST(ReorderBySpacing, BurstSwapDecaysWithSpacing) {
  // Two 3-packet bursts swapped: short-range pairs inside a burst stay
  // ordered; the reorder probability is concentrated at spacings that
  // straddle the swap.
  const auto al = align_trials(make_trial({1, 2, 3, 4, 5, 6}),
                               make_trial({4, 5, 6, 1, 2, 3}));
  const auto r = reorder_probability_by_spacing(al, 5);
  // Only the boundary pair (3,4) flips at spacing 1: 1 of 5 pairs.
  EXPECT_NEAR(r.probability[0], 0.2, 1e-12);
  EXPECT_GT(r.probability[2], 0.5);  // burst-length spacing flips
}

TEST(ReorderBySpacing, ValidatesInput) {
  const Trial a = make_trial({1, 2});
  const auto al = align_trials(a, a);
  EXPECT_THROW(reorder_probability_by_spacing(al, 0), Error);
}

TEST(ReorderBySpacing, TinyCommonSetsHandled) {
  const auto al = align_trials(make_trial({1}), make_trial({1}));
  const auto r = reorder_probability_by_spacing(al, 5);
  EXPECT_EQ(r.pairs_examined, 0u);
}

TEST(MoveBlocks, NoMovesIsOneFraction) {
  const Trial a = make_trial({1, 2, 3});
  const auto al = align_trials(a, a);
  EXPECT_TRUE(coalesce_move_blocks(al).empty());
  EXPECT_EQ(block_move_fraction(al), 1.0);
}

TEST(MoveBlocks, WholeBurstMovesAsOneBlock) {
  // 4,5,6 move together: Section 6.2's signature.
  const auto al = align_trials(make_trial({1, 2, 3, 4, 5, 6}),
                               make_trial({4, 5, 6, 1, 2, 3}));
  const auto blocks = coalesce_move_blocks(al);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].length, 3u);
  EXPECT_EQ(std::abs(blocks[0].displacement), 3);
  EXPECT_EQ(block_move_fraction(al), 1.0);
}

TEST(MoveBlocks, ScatteredSwapsDoNotCoalesce) {
  const auto al =
      align_trials(make_trial({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   make_trial({2, 1, 3, 4, 5, 6, 7, 8, 10, 9}));
  // Two isolated swaps far apart: single-move blocks only.
  EXPECT_EQ(block_move_fraction(al, 2), 0.0);
  EXPECT_EQ(coalesce_move_blocks(al).size(), al.moves.size());
}

TEST(MoveBlocks, InterleavedStreamBurstsStillCoalesce) {
  // A burst from one stream shifts as a unit while the other stream's
  // packets stay anchored between them — the dual-replayer pattern. The
  // moved packets are non-adjacent in B but form one logical block.
  // A: a1 b1 a2 b2 a3 b3 (ids: odd = stream a, even = stream b)
  // B: b1 a1 b2 a2 b3 a3 (stream a slips one slot later everywhere)
  const auto al = align_trials(make_trial({1, 2, 3, 4, 5, 6}),
                               make_trial({2, 1, 4, 3, 6, 5}));
  const auto blocks = coalesce_move_blocks(al);
  ASSERT_GE(blocks.size(), 1u);
  std::size_t largest = 0;
  for (const auto& b : blocks) largest = std::max<std::size_t>(largest, b.length);
  EXPECT_EQ(largest, al.moves.size());  // one block carries all moves
}

TEST(MoveBlocks, BlocksPartitionMoves) {
  const auto al = align_trials(
      make_trial({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
      make_trial({4, 5, 6, 1, 2, 3, 8, 7, 9, 10}));
  std::size_t total = 0;
  for (const auto& b : coalesce_move_blocks(al)) total += b.length;
  EXPECT_EQ(total, al.moves.size());
}

}  // namespace
}  // namespace choir::core
