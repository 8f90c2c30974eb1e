// Longest (strictly) increasing subsequence in O(n log n).
//
// Section 3 computes the Longest Common Subsequence of two trials by
// mapping trial B's packets to their indices in trial A and taking the
// LIS of that index sequence (Schensted's construction) — valid because
// each trial is a permutation of unique packets.
//
// The patience piles are kept as two parallel flat arrays: `tail_vals`
// holds the smallest tail *value* per pile contiguously (so the search
// never indirects through positions back into the input — one
// cache-resident array instead of a dependent load per probe) and
// `tail_pos` the matching input position used for parent links. The
// search gallops down from the top pile: a value above every tail starts
// a new pile after one compare, and a value that lands d piles below the
// top costs O(log d) probes (1, 2, 4, ... piles down, then the
// branchless halving lower_bound over the last bracket) instead of
// O(log piles). A replayed trace is an almost-sorted permutation: an
// in-order run costs O(n), and a value out of order lands near the top
// (on a 1M-packet local-dual pair, half the values start a new pile and
// the rest land fewer than 2^15 of about 510k piles down).
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

/// First index i with sorted[i] >= v (sorted.size() when none): the
/// std::lower_bound index, found by galloping down from the last element
/// and halving the final bracket. The LIS's only pile search.
std::size_t gallop_lower_bound(std::span<const std::uint32_t> sorted,
                               std::uint32_t v);

/// Writes into *out (cleared first) the positions (into `values`) of one
/// longest strictly increasing subsequence, in increasing position order.
/// Patience sorting with parent links; every internal buffer of
/// `scratch` is reused across calls. Takes a span so arena-backed callers
/// never copy (vectors convert implicitly).
void longest_increasing_subsequence(std::span<const std::uint32_t> values,
                                    LisScratch& scratch,
                                    std::vector<std::uint32_t>* out);

/// Just the LIS length, through std::lower_bound: the test oracle.
std::size_t lis_length(std::span<const std::uint32_t> values);

}  // namespace choir::core
