// Alignment of two trials and the minimum edit script between them.
//
// Following Section 3: the LCS of two trials (permutations of unique
// packets) is found as the LIS of trial B's packets mapped to their
// indices in trial A. Packets common to both trials but off the LCS are
// "moved" in the minimum edit script that transforms B into A; each
// carries a displacement — the signed difference between its index of
// reinsertion (position in A) and its index of deletion (position in B).
// Table 1 of the paper reports exactly these displacements.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trial.hpp"

namespace choir::core {

/// One matched packet (present in both trials), in B order.
struct MatchedPacket {
  std::uint32_t index_a = 0;  ///< position in trial A
  std::uint32_t index_b = 0;  ///< position in trial B
  std::uint32_t rank_a = 0;   ///< rank among common packets, A order
  std::uint32_t rank_b = 0;   ///< rank among common packets, B order
  bool on_lcs = false;        ///< anchors of the LCS are not moved
};

/// A moved packet in the minimum edit script transforming B into A.
/// Displacement is measured in common-subsequence ranks (the edit script
/// permutes the common packets; B-only packets are plain insertions), so
/// the Eq. 2 normalizer — the reversal worst case — is a true maximum.
struct Move {
  std::uint32_t index_b = 0;          ///< raw position in B (deletion)
  std::uint32_t index_a = 0;          ///< raw position in A (reinsertion)
  std::int64_t displacement = 0;      ///< rank_a - rank_b (signed)
};

struct Alignment {
  std::vector<MatchedPacket> matches;  ///< |A ∩ B| entries, in B order
  std::vector<Move> moves;             ///< matches off the LCS
  std::size_t size_a = 0;
  std::size_t size_b = 0;
  std::size_t lcs_length = 0;

  /// Sum of |displacement| over all moves (the numerator of O, Eq. 2),
  /// computed once during align_trials. Every term is an integer-valued
  /// double and the sum stays far below 2^53, so the stored value is
  /// bit-identical to re-summing the moves in any order.
  double sum_abs_displacement = 0.0;

  std::size_t common() const { return matches.size(); }
  std::size_t missing_from_b() const { return size_a - common(); }
  std::size_t extra_in_b() const { return size_b - common(); }

  /// Sum of |displacement| over all moves — the numerator of O (Eq. 2).
  double total_abs_displacement() const { return sum_abs_displacement; }
};

struct CompareScratch;

/// Align trial B against trial A into *out. Packet ids must be unique
/// within each trial (call Trial::make_occurrences_unique() first if
/// needed); throws choir::Error otherwise. Flat-table id matching with
/// every buffer (including *out's vectors, which are cleared but keep
/// capacity) reused across calls: zero heap allocations once the scratch
/// is warm.
void align_trials(const Trial& a, const Trial& b, CompareScratch& scratch,
                  Alignment* out);

}  // namespace choir::core
