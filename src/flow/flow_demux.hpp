// Demultiplex a recorded trial by flow.
//
// Input: a trial plus a parallel vector of flow ids (one per packet, as
// produced by classification — trace::classify_capture or the recorder's
// sharded classifier). Output: the trial positions of every classified
// packet grouped by flow, plus one offset per flow (CSR layout): flow f's
// packets are at positions[offsets[f], offsets[f + 1]), in arrival order.
// A counting-sort split — two passes, no comparisons, stable by
// construction — that allocates two arrays however many flows there are,
// and holds 4-byte positions rather than packet copies, so demuxing a
// trial costs a sixth of the trial's size.
//
// Determinism: the split is a pure function of (trial, ids), so for a
// byte-identical capture the per-flow runs are byte-identical — the
// property the per-flow κ fan-out and the --jobs byte-identity gate rely
// on. Packets classified kNoFlow (unparseable headers) are counted and
// dropped; their count is part of the return value so callers can
// surface it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/trial.hpp"
#include "flow/flow_key.hpp"

namespace choir::flow {

struct DemuxResult {
  /// Trial positions of the classified packets, grouped by flow id,
  /// arrival order within a flow.
  std::vector<std::uint32_t> positions;
  /// flow_count + 1 offsets into `positions`; flows with no packets
  /// (possible after erase or when demuxing run B against run A's id
  /// space) have equal neighbors.
  std::vector<std::size_t> offsets;
  std::uint64_t unclassified = 0;  ///< packets with id kNoFlow, dropped

  std::size_t flows() const { return offsets.size() - 1; }

  /// Trial positions of flow `f`'s packets, in arrival order.
  std::span<const std::uint32_t> flow(FlowId f) const {
    return std::span<const std::uint32_t>(positions)
        .subspan(offsets[f], offsets[f + 1] - offsets[f]);
  }

  /// Load flow `f` of `trial` (the demuxed trial) into `out`, rebased to
  /// the flow's first packet: each flow is evaluated on its own
  /// timebase, as whole captures are. Reuses `out`'s storage, so a warm
  /// trial loads without allocating.
  void load_rebased(const core::Trial& trial, FlowId f,
                    core::Trial& out) const;
};

/// Split `trial` by `ids` (must be the same length) into `flow_count`
/// per-flow position runs.
DemuxResult demux_trial(const core::Trial& trial, std::span<const FlowId> ids,
                        std::size_t flow_count);

}  // namespace choir::flow
