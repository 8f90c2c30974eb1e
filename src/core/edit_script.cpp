#include "core/edit_script.hpp"

#include <span>

#include "common/expect.hpp"
#include "core/compare_scratch.hpp"
#include "core/lis.hpp"
#include "telemetry/span_profiler.hpp"

namespace choir::core {

namespace {

template <typename Vec>
void reserve_tracked(Vec& v, std::size_t n, std::uint64_t* grows) {
  if (v.capacity() < n) {
    ++*grows;
    v.reserve(n);
  }
}

/// Sum of |rank - position| over entries off one maximal LCS of
/// `sequence`, where the other-direction rank of the entry at position
/// pos is pos itself (both rank sequences align_trials feeds here are
/// permutations read against the identity). Membership flags for the
/// chosen LCS land in `member` (sized/cleared here, buffers reused).
double off_lcs_displacement(std::span<const std::uint32_t> sequence,
                            CompareScratch& scratch,
                            std::vector<char>* member) {
  longest_increasing_subsequence(sequence, scratch.lis, &scratch.lis_out);
  reserve_tracked(*member, sequence.size(), &scratch.grows);
  member->assign(sequence.size(), 0);
  for (const std::uint32_t pos : scratch.lis_out) (*member)[pos] = 1;
  double sum = 0.0;
  for (std::uint32_t pos = 0; pos < sequence.size(); ++pos) {
    if ((*member)[pos]) continue;
    const double d = static_cast<double>(sequence[pos]) -
                     static_cast<double>(pos);
    sum += d < 0 ? -d : d;
  }
  return sum;
}

}  // namespace

Alignment align_trials(const Trial& a, const Trial& b) {
  CompareScratch scratch;
  Alignment out;
  align_trials(a, b, scratch, &out);
  return out;
}

void align_trials(const Trial& a, const Trial& b, CompareScratch& scratch,
                  Alignment* out) {
  telemetry::ProfileSpan prof("kappa.align");
  out->matches.clear();
  out->moves.clear();
  out->size_a = a.size();
  out->size_b = b.size();
  out->lcs_length = 0;
  out->sum_abs_displacement = 0.0;

  const ReferenceIndex* index = scratch.shared_ref;
  if (index != nullptr) {
    CHOIR_EXPECT(index->size() == a.size(),
                 "shared reference index does not match trial A");
  } else {
    if (scratch.own_ref.rebuild(a)) ++scratch.grows;
    index = &scratch.own_ref;
  }

  // Epoch bump makes every claim stamp from earlier comparisons stale in
  // O(1); on the (rare) u32 wrap the stamps are cleared for real so old
  // epochs can never read as current.
  if (++scratch.epoch == 0) {
    for (auto& c : scratch.claimed) c.epoch = 0;
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  if (scratch.claimed.size() < a.size()) {
    ++scratch.grows;
    scratch.claimed.resize(a.size());
  }
  // The B-only set is sized for the worst case (every B packet absent
  // from A) up front, so the scan below never rehashes mid-pass.
  scratch.b_only.clear();
  if (scratch.b_only.reserve(b.size())) ++scratch.grows;

  // --- Fused duplicate-check / match pass over B: one flat-table probe
  // per packet, one claim write for the common (id present in A) case —
  // where the map-based path paid two hash-map operations.
  reserve_tracked(out->matches, b.size(), &scratch.grows);
  for (std::uint32_t k = 0; k < b.size(); ++k) {
    const PacketId id = b[k].id;
    const std::uint32_t j = index->lookup(id);
    if (j != ReferenceIndex::kNoIndex) {
      CompareScratch::Claim& claim = scratch.claimed[j];
      CHOIR_EXPECT(claim.epoch != epoch,
                   "trial B contains duplicate packet ids");
      claim.epoch = epoch;
      claim.match = static_cast<std::uint32_t>(out->matches.size());
      MatchedPacket m;
      m.index_a = j;
      m.index_b = k;
      out->matches.push_back(m);
    } else {
      CHOIR_EXPECT(scratch.b_only.insert(id).fresh,
                   "trial B contains duplicate packet ids");
    }
  }
  const std::uint32_t m = static_cast<std::uint32_t>(out->matches.size());
  ++scratch.comparisons;
  if (m == 0) return;

  // Ranks within the common subsequence. rank_b is simply the match
  // position (matches are in B order); rank_a orders the same packets by
  // their position in A — recovered by one linear scan over the claim
  // array instead of sorting the matches. Displacements are measured in
  // ranks, not raw trial indices: the minimum edit script moves packets
  // within the common permutation (insertions of B-only packets are
  // separate edits covered by U), and ranks give the proven maximum of
  // Eq. 2 (a reversal, the Spearman-footrule worst case).
  reserve_tracked(scratch.order, m, &scratch.grows);
  reserve_tracked(scratch.seq_forward, m, &scratch.grows);
  reserve_tracked(scratch.seq_backward, m, &scratch.grows);
  scratch.order.resize(m);
  scratch.seq_forward.resize(m);
  scratch.seq_backward.resize(m);
  std::uint32_t rank = 0;
  for (std::uint32_t j = 0; j < a.size(); ++j) {
    const CompareScratch::Claim& claim = scratch.claimed[j];
    if (claim.epoch != epoch) continue;
    out->matches[claim.match].rank_a = rank;
    scratch.order[rank] = claim.match;
    // The match index is its own rank_b (matches are in B order).
    scratch.seq_backward[rank] = claim.match;
    ++rank;
  }
  for (std::uint32_t k = 0; k < m; ++k) {
    out->matches[k].rank_b = k;
    scratch.seq_forward[k] = out->matches[k].rank_a;
  }

  // The maximal LCS is not unique; which packets count as "moved" depends
  // on the one chosen. Evaluating the LIS from both directions and
  // keeping the cheaper partition makes the metric symmetric
  // (O_AB = O_BA, as Eq. 2 requires) and no larger than either greedy
  // choice. Both rank sequences are permutations whose counterpart rank
  // at position pos is pos, so the identity-rank footrule applies.
  const double forward =
      off_lcs_displacement(scratch.seq_forward, scratch, &scratch.member_fwd);
  const double backward =
      off_lcs_displacement(scratch.seq_backward, scratch, &scratch.member_bwd);

  // Adopt the cheaper partition's membership flags (translated to B
  // order when the backward direction won). Each footrule term is an
  // exact integer, so the chosen sum equals re-summing the moves bit
  // for bit.
  out->sum_abs_displacement = forward <= backward ? forward : backward;
  if (forward <= backward) {
    for (std::uint32_t k = 0; k < m; ++k) {
      out->matches[k].on_lcs = scratch.member_fwd[k] != 0;
    }
  } else {
    for (std::uint32_t r = 0; r < m; ++r) {
      if (scratch.member_bwd[r]) out->matches[scratch.order[r]].on_lcs = true;
    }
  }
  for (std::uint32_t k = 0; k < m; ++k) {
    out->lcs_length += out->matches[k].on_lcs ? 1u : 0u;
  }

  // Reserve to m, not the move count: capacity then depends only on the
  // comparison size, so equal-size comparisons never regrow the buffer
  // just because one had more off-LCS packets than the last.
  reserve_tracked(out->moves, m, &scratch.grows);
  for (const MatchedPacket& match : out->matches) {
    if (match.on_lcs) continue;
    Move mv;
    mv.index_b = match.index_b;
    mv.index_a = match.index_a;
    mv.displacement = static_cast<std::int64_t>(match.rank_a) -
                      static_cast<std::int64_t>(match.rank_b);
    out->moves.push_back(mv);
  }
}

}  // namespace choir::core
