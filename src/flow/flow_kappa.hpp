// Per-flow consistency evaluation and cross-flow aggregation.
//
// The Section 3 metrics grade a whole trial; at many-flow scale the
// question becomes "which flows replayed badly, and how bad is the
// tail". compare_flows() demuxes two trials by flow, runs the exact
// Eq. 5 comparison per matched flow on the flow's own timebase, and
// summarizes the per-flow κ distribution as a FlowAggregate:
// worst-case, p50/p90/p99/p99.9 (stats::percentile_sorted
// conventions; the κ tail is the distribution's low end), a
// packet-weighted mean, and the plain mean.
//
// Grading convention for unmatched flows: a flow present in only one
// trial (every packet missing, or every packet extra) is graded exactly
// as Eq. 5 grades a trial against an empty one — U = 1, O = L = I = 0,
// κ = 1 - 1/2 = 0.5 — and participates in the aggregate with its
// one-sided packet weight. A wholly dropped flow therefore drags the
// tail percentiles instead of vanishing from them.
//
// Flows are compared one after another in flow-id order, and the
// aggregate folds them in the same order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "flow/flow_key.hpp"
#include "flow/flow_table.hpp"

namespace choir::flow {

struct FlowComparison {
  FlowKey key;            ///< default (all-zero) on the by-id path
  FlowId id = kNoFlow;    ///< id in the reference (A) id space; B-only
                          ///< flows get ids past A's count
  std::uint32_t packets_a = 0;
  std::uint32_t packets_b = 0;
  bool in_a = false;
  bool in_b = false;
  bool matched() const { return in_a && in_b; }
  core::ConsistencyMetrics metrics;  ///< exact Eq. 5 on the sub-trials
};

struct FlowAggregate {
  std::size_t flows = 0;    ///< union of flows across both trials
  std::size_t matched = 0;  ///< present in both
  std::size_t only_a = 0;   ///< wholly missing from B
  std::size_t only_b = 0;   ///< wholly extra in B
  double worst = 0.0;       ///< min κ across flows
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  ///< stats::p999_low_sorted — the extreme κ tail
  double weighted_mean = 0.0;  ///< κ weighted by per-flow packet count
  double mean = 0.0;
};

struct FlowSetComparison {
  /// Per-flow comparisons ordered by flow id (A's first-seen order, then
  /// B-only flows in B's first-seen order).
  std::vector<FlowComparison> flows;
  FlowAggregate aggregate;
  std::uint64_t unclassified_a = 0;  ///< packets dropped from the demux
  std::uint64_t unclassified_b = 0;
};

/// Fold an ordered per-flow comparison list into the aggregate (percentile
/// conventions from common/stats.hpp). Exposed for the streaming monitor,
/// which accumulates FlowComparisons of its own.
FlowAggregate aggregate_flows(std::span<const FlowComparison> flows);

/// Compare two trials flow by flow when both were classified against the
/// SAME id space (e.g. the recorder's persistent classifier): ids match
/// directly. `flow_count` is the id-space size.
FlowSetComparison compare_flows_by_id(const core::Trial& a,
                                      std::span<const FlowId> ids_a,
                                      const core::Trial& b,
                                      std::span<const FlowId> ids_b,
                                      std::size_t flow_count);

/// B's flow ids in A's id space, matched by key: a flow of both tables
/// takes A's id, and B-only flows are appended past A's count in B's
/// first-seen order.
struct FlowRemap {
  std::vector<FlowId> ids;     ///< B's per-packet ids, remapped
  std::vector<FlowId> b_only;  ///< B's id of remapped id table_a.size() + i
  std::size_t flow_count = 0;  ///< A's flows plus the B-only ones
};

FlowRemap remap_flows(const FlowTable& table_a, const FlowTable& table_b,
                      std::span<const FlowId> ids_b);

/// Compare two independently classified trials whose flows `remap`
/// matched by key (remap_flows(table_a, table_b, ids of B)). Fills
/// FlowComparison::key from the tables.
FlowSetComparison compare_flows(const core::Trial& a, const FlowTable& table_a,
                                std::span<const FlowId> ids_a,
                                const core::Trial& b, const FlowTable& table_b,
                                const FlowRemap& remap);

/// Same, remapping B's ids first. `jobs` has no effect; the benchmark
/// harness passes it (ROADMAP "Mend perfbench").
inline FlowSetComparison compare_flows(const core::Trial& a,
                                       const FlowTable& table_a,
                                       std::span<const FlowId> ids_a,
                                       const core::Trial& b,
                                       const FlowTable& table_b,
                                       std::span<const FlowId> ids_b,
                                       int /*jobs*/ = 1) {
  return compare_flows(a, table_a, ids_a, b, table_b,
                       remap_flows(table_a, table_b, ids_b));
}

}  // namespace choir::flow
