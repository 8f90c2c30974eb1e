// The reordering toolkit parallel_replay.cpp uses: reordering analysis
// beyond the single O number, plus the one-shot alignment it starts from.
// No production binary needs these views, so they live with the example
// (tests/test_reordering.cpp and tests/test_edit_script.cpp check them).
//
// Section 9 points to Bellardo & Savage's metric — reordering expressed
// as a probability as a function of inter-packet spacing — and notes that
// Choir's move distances "could also be shown as a function of spacing".
// This header provides that view, plus the block-movement decomposition
// the paper uses informally in Section 6.2 ("most packets that move are
// moved as whole bursts... with identical distances").
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/expect.hpp"
#include "core/compare_scratch.hpp"
#include "core/edit_script.hpp"

namespace choir::core {

/// Align trial B against trial A with a scratch of its own. Packet ids
/// must be unique within each trial (call Trial::make_occurrences_unique()
/// first if needed); throws choir::Error otherwise. Identical output to
/// the arena overload in core/edit_script.hpp.
inline Alignment align_trials(const Trial& a, const Trial& b) {
  CompareScratch scratch;
  Alignment out;
  align_trials(a, b, scratch, &out);
  return out;
}

/// P(pair reordered | pair spacing) for spacing = 1..max_spacing, where a
/// pair (i, i+k) of common packets (by A rank) is "reordered" if their
/// relative order differs in B. Matches Bellardo-Savage's per-spacing
/// probabilities computed on our aligned trials.
struct ReorderBySpacing {
  std::vector<double> probability;  ///< index k-1 holds spacing k
  std::uint64_t pairs_examined = 0;
  std::uint64_t pairs_reordered = 0;
};

inline ReorderBySpacing reorder_probability_by_spacing(
    const Alignment& alignment, std::uint32_t max_spacing) {
  CHOIR_EXPECT(max_spacing >= 1, "need a positive spacing range");
  ReorderBySpacing out;
  const std::uint32_t m = static_cast<std::uint32_t>(alignment.common());
  out.probability.assign(max_spacing, 0.0);
  if (m < 2) return out;

  // rank_b indexed by rank_a: the permutation the receiver applied.
  std::vector<std::uint32_t> rank_b_of_a(m);
  for (const MatchedPacket& match : alignment.matches) {
    rank_b_of_a[match.rank_a] = match.rank_b;
  }

  std::vector<std::uint64_t> examined(max_spacing, 0);
  std::vector<std::uint64_t> reordered(max_spacing, 0);
  for (std::uint32_t k = 1; k <= max_spacing; ++k) {
    for (std::uint32_t i = 0; i + k < m; ++i) {
      ++examined[k - 1];
      if (rank_b_of_a[i] > rank_b_of_a[i + k]) ++reordered[k - 1];
    }
  }
  for (std::uint32_t k = 0; k < max_spacing; ++k) {
    out.pairs_examined += examined[k];
    out.pairs_reordered += reordered[k];
    out.probability[k] =
        examined[k] > 0
            ? static_cast<double>(reordered[k]) /
                  static_cast<double>(examined[k])
            : 0.0;
  }
  return out;
}

/// Runs of moved packets travelling together — the "whole bursts move
/// together" structure. Successive moves (in B order) join a block when
/// they sit within `max_gap` positions of each other and their
/// displacements differ by at most `displacement_tolerance` (moved
/// packets from one stream interleave with the other stream's anchored
/// packets, so strict adjacency would shatter real bursts).
struct MoveBlock {
  std::uint32_t first_index_b = 0;
  std::uint32_t last_index_b = 0;
  std::uint32_t length = 0;           ///< moved packets in the block
  std::int64_t displacement = 0;      ///< displacement of the first move
};

struct BlockRules {
  std::uint32_t max_gap = 4;
  std::int64_t displacement_tolerance = 1;
};

inline std::vector<MoveBlock> coalesce_move_blocks(
    const Alignment& alignment, const BlockRules& rules = {}) {
  std::vector<MoveBlock> blocks;
  std::int64_t prev_displacement = 0;
  for (const Move& mv : alignment.moves) {
    if (!blocks.empty()) {
      MoveBlock& last = blocks.back();
      const std::int64_t d_delta = mv.displacement - prev_displacement;
      if (mv.index_b - last.last_index_b <= rules.max_gap &&
          std::abs(d_delta) <= rules.displacement_tolerance) {
        ++last.length;
        last.last_index_b = mv.index_b;
        prev_displacement = mv.displacement;
        continue;
      }
    }
    blocks.push_back(MoveBlock{mv.index_b, mv.index_b, 1, mv.displacement});
    prev_displacement = mv.displacement;
  }
  return blocks;
}

/// Fraction of moved packets that travel inside blocks of at least
/// `min_block` packets. 1.0 = all reordering is block movement.
inline double block_move_fraction(const Alignment& alignment,
                                  std::uint32_t min_block = 2,
                                  const BlockRules& rules = {}) {
  if (alignment.moves.empty()) return 1.0;
  std::uint64_t in_blocks = 0;
  for (const MoveBlock& block : coalesce_move_blocks(alignment, rules)) {
    if (block.length >= min_block) in_blocks += block.length;
  }
  return static_cast<double>(in_blocks) /
         static_cast<double>(alignment.moves.size());
}

}  // namespace choir::core
