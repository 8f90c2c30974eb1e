// Longest (strictly) increasing subsequence in O(n log n).
//
// Section 3 computes the Longest Common Subsequence of two trials by
// mapping trial B's packets to their indices in trial A and taking the
// LIS of that index sequence (Schensted's construction) — valid because
// each trial is a permutation of unique packets.
//
// The patience piles are kept as two parallel flat arrays: `tail_vals`
// holds the smallest tail *value* per pile contiguously (so the binary
// search never indirects through positions back into the input — one
// cache-resident array instead of a dependent load per probe) and
// `tail_pos` the matching input position used for parent links. The
// search itself is the branchless halving lower_bound, skipped when the
// value extends the longest pile — the common case on a near-ordered
// replay, which then costs O(n) rather than O(n log n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace choir::core {

/// Reusable patience-sorting workspace so repeated LIS runs (two per
/// alignment, thousands per bench suite) stop reallocating. `grows`
/// counts buffer-growth events: constant once warm, which is what the
/// zero-steady-state-allocation tests assert on.
struct LisScratch {
  std::vector<std::uint32_t> tail_vals;  ///< pile tail values, contiguous
  std::vector<std::uint32_t> tail_pos;   ///< input position per pile
  std::vector<std::uint32_t> parent;     ///< predecessor links
  std::uint64_t grows = 0;               ///< capacity-growth events
};

/// Returns the positions (into `values`) of one longest strictly
/// increasing subsequence, in increasing position order. Patience sorting
/// with parent links. Takes a span so arena-backed callers never copy
/// (vectors convert implicitly).
std::vector<std::uint32_t> longest_increasing_subsequence(
    std::span<const std::uint32_t> values);

/// Workspace variant: positions written into *out (cleared first), every
/// internal buffer reused across calls. Output is identical to the
/// allocating overloads.
void longest_increasing_subsequence(std::span<const std::uint32_t> values,
                                    LisScratch& scratch,
                                    std::vector<std::uint32_t>* out);

/// Convenience: just the LIS length.
std::size_t lis_length(std::span<const std::uint32_t> values);

}  // namespace choir::core
