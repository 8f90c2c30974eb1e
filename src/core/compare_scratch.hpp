// Reusable arena for the κ kernels (the ROADMAP "κ-kernel raw speed"
// item): everything align_trials/compare_trials need per comparison,
// owned once and recycled, so steady-state comparison loops (bench
// suites, per-flow demux, monitor windows) perform zero heap
// allocations.
//
// Two pieces:
//
//  - ReferenceIndex: packet id -> index in trial A, a PacketIdIndex
//    whose dense ids are exactly the positions in A
//    (core/packet_id_index.hpp: direct-addressed lanes per sender plus a
//    spill table). It is immutable after rebuild(), so one index built
//    over a reference trial can be shared read-only across evaluation
//    workers (experiment.cpp builds it once for run A and reuses it for
//    every B..E comparison).
//
//  - CompareScratch: the per-worker mutable state — an epoch-stamped
//    claim array that fuses trial-B duplicate detection with the match
//    pass (one index lookup plus one array write per packet), the B-only
//    duplicate set, the rank and LIS buffers, and a reusable Alignment.
//    Epoch stamping makes the logical clear between comparisons O(1).
//
// Not thread-safe: share only the const ReferenceIndex; give each
// worker its own CompareScratch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "core/edit_script.hpp"
#include "core/lis.hpp"
#include "core/trial.hpp"

namespace choir::core {

/// Index of a reference trial: packet id -> position in A.
/// Read-only after rebuild(), hence shareable across threads.
class ReferenceIndex {
 public:
  static constexpr std::uint32_t kNoIndex = PacketIdIndex::kNone;

  ReferenceIndex() = default;
  explicit ReferenceIndex(const Trial& a) { rebuild(a); }

  /// Index `a`; throws choir::Error on duplicate packet ids and leaves
  /// the index empty. Storage is reused when capacity allows; returns
  /// true when it had to grow (allocation telemetry for the scratch
  /// counters).
  bool rebuild(const Trial& a) {
    const std::uint64_t grows = index_.grows();
    index_.clear();
    index_.reserve(a.size());
    for (const TrialPacket& p : a.packets()) {
      const bool fresh = index_.insert(p.id).fresh;
      if (!fresh) index_.clear();
      CHOIR_EXPECT(fresh, "trial A contains duplicate packet ids");
    }
    return index_.grows() != grows;
  }

  /// Position of `id` in the indexed trial, kNoIndex when absent.
  std::uint32_t lookup(PacketId id) const { return index_.find(id); }

  /// Number of packets indexed (size of the trial passed to rebuild).
  std::size_t size() const { return index_.size(); }

 private:
  PacketIdIndex index_;
};

/// Per-worker comparison arena. Fields below `shared_ref` are
/// implementation detail of align_trials/compare_trials (public so the
/// free-function kernels can reach them, like LisScratch).
struct CompareScratch {
  /// Optional prebuilt index for trial A, for callers comparing many
  /// trials against one reference. Must outlive its use here and index
  /// exactly the A passed to align/compare (checked by size). nullptr
  /// restores the default: `own_ref` is rebuilt per alignment.
  const ReferenceIndex* shared_ref = nullptr;

  /// Completed alignments through this scratch.
  std::uint64_t comparisons = 0;

  /// Buffer-growth events across every internal arena, including the
  /// LIS workspace. Constant once the scratch is warm — the
  /// zero-steady-state-allocation contract the tests assert on.
  std::uint64_t total_grows() const { return grows + lis.grows; }

  // --- internals ---------------------------------------------------------
  ReferenceIndex own_ref;
  std::uint64_t grows = 0;

  /// A-side claim array: claimed[j] records which match (if any) took
  /// reference position j this epoch. Fuses B-duplicate detection with
  /// matching, and turns rank assignment into one linear scan over A
  /// (replacing the per-comparison iota+sort).
  struct Claim {
    std::uint32_t epoch = 0;
    std::uint32_t match = 0;
  };
  std::vector<Claim> claimed;

  /// Duplicate detection for B-only ids (ids absent from A), cleared
  /// per alignment in O(1).
  PacketIdIndex b_only;

  std::uint32_t epoch = 0;

  std::vector<std::uint32_t> order;        ///< match index (= rank_b) by rank_a
  std::vector<std::uint32_t> seq_forward;  ///< rank_a in B order
  std::vector<std::uint32_t> lis_out;      ///< LIS positions buffer
  std::vector<char> member_fwd;            ///< LCS membership, B order
  std::vector<char> member_bwd;            ///< LCS membership, A-rank order
  LisScratch lis;
  Alignment alignment;  ///< compare_trials' reusable alignment storage
};

}  // namespace choir::core
