// Per-flow κ and cross-flow aggregation semantics: matched flows run the
// exact Eq. 5 comparison on their own timebase, one-sided flows grade as
// κ = 0.5 (Eq. 5 against an empty trial), and the aggregate's p90/p99
// read the LOW tail of the ascending κ sample (the value 90%/99% of
// flows meet or exceed).
#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"
#include "flow/flow_kappa.hpp"

namespace choir::flow {
namespace {

core::TrialPacket packet(std::uint64_t seq, Ns time) {
  return {core::PacketId{0xF10F, seq}, time};
}

/// Hand-built comparison row with a pinned κ and packet weight.
FlowComparison row(double kappa, std::uint32_t packets_each) {
  FlowComparison fc;
  fc.in_a = fc.in_b = true;
  fc.packets_a = fc.packets_b = packets_each;
  fc.metrics.kappa = kappa;
  return fc;
}

TEST(FlowKappa, IdenticalTrialsScorePerfectEverywhere) {
  std::vector<core::TrialPacket> packets;
  std::vector<FlowId> ids;
  for (std::uint64_t i = 0; i < 300; ++i) {
    packets.push_back(packet(i, static_cast<Ns>(i) * 1000));
    ids.push_back(static_cast<FlowId>(i % 3));
  }
  const core::Trial trial(packets);
  const auto cmp = compare_flows_by_id(trial, ids, trial, ids, 3);
  EXPECT_EQ(cmp.aggregate.flows, 3u);
  EXPECT_EQ(cmp.aggregate.matched, 3u);
  EXPECT_EQ(cmp.aggregate.only_a, 0u);
  EXPECT_EQ(cmp.aggregate.only_b, 0u);
  EXPECT_EQ(cmp.aggregate.worst, 1.0);
  EXPECT_EQ(cmp.aggregate.p50, 1.0);
  EXPECT_EQ(cmp.aggregate.p99, 1.0);
  EXPECT_EQ(cmp.aggregate.weighted_mean, 1.0);
  for (const auto& fc : cmp.flows) {
    EXPECT_TRUE(fc.matched());
    EXPECT_EQ(fc.metrics.kappa, 1.0);
    EXPECT_EQ(fc.packets_a, 100u);
  }
}

TEST(FlowKappa, OneSidedFlowGradesAsHalf) {
  // Flow 1 exists only in A (wholly dropped), flow 2 only in B (wholly
  // extra). Both grade U = 1, O = L = I = 0 → κ = 0.5 and stay in the
  // aggregate with their one-sided packet weight.
  core::Trial a({packet(0, 0), packet(1, 1000), packet(2, 2000)});
  const std::vector<FlowId> ids_a = {0, 1, 1};
  core::Trial b({packet(0, 0), packet(9, 1000)});
  const std::vector<FlowId> ids_b = {0, 2};

  const auto cmp = compare_flows_by_id(a, ids_a, b, ids_b, 3);
  EXPECT_EQ(cmp.aggregate.flows, 3u);
  EXPECT_EQ(cmp.aggregate.matched, 1u);
  EXPECT_EQ(cmp.aggregate.only_a, 1u);
  EXPECT_EQ(cmp.aggregate.only_b, 1u);

  EXPECT_EQ(cmp.flows[0].metrics.kappa, 1.0);
  EXPECT_EQ(cmp.flows[1].metrics.kappa, 0.5);
  EXPECT_EQ(cmp.flows[1].metrics.uniqueness, 1.0);
  EXPECT_EQ(cmp.flows[1].packets_a, 2u);
  EXPECT_EQ(cmp.flows[1].packets_b, 0u);
  EXPECT_EQ(cmp.flows[2].metrics.kappa, 0.5);
  EXPECT_EQ(cmp.aggregate.worst, 0.5);
  // Weighted mean: (1*2 + 0.5*2 + 0.5*1) / 5.
  EXPECT_DOUBLE_EQ(cmp.aggregate.weighted_mean, (2.0 + 1.0 + 0.5) / 5.0);
}

TEST(FlowKappa, AggregatePercentilesReadTheLowTail) {
  // 100 flows at κ = 0.01 .. 1.00: p90 must report the value 90% of
  // flows are at-or-above — the 10th percentile of the ascending
  // sample — and p99 the 1st.
  std::vector<FlowComparison> flows;
  std::vector<double> kappas;
  for (int i = 1; i <= 100; ++i) {
    flows.push_back(row(i / 100.0, 10));
    kappas.push_back(i / 100.0);
  }
  const FlowAggregate agg = aggregate_flows(flows);
  EXPECT_EQ(agg.flows, 100u);
  EXPECT_EQ(agg.worst, 0.01);
  EXPECT_DOUBLE_EQ(agg.p50, stats::percentile_sorted(kappas, 50.0));
  EXPECT_DOUBLE_EQ(agg.p90, stats::percentile_sorted(kappas, 10.0));
  EXPECT_DOUBLE_EQ(agg.p99, stats::percentile_sorted(kappas, 1.0));
  EXPECT_DOUBLE_EQ(agg.p999, stats::p999_low_sorted(kappas));
  EXPECT_LT(agg.p99, agg.p90);  // tail ordering: p99 is the worse value
  EXPECT_LT(agg.p90, agg.p50);
  EXPECT_LE(agg.p999, agg.p99);  // the extreme tail is at least as bad
  EXPECT_LE(agg.worst, agg.p999);
  EXPECT_DOUBLE_EQ(agg.mean, 0.505);
  EXPECT_DOUBLE_EQ(agg.weighted_mean, 0.505);  // uniform weights
}

TEST(FlowKappa, WeightedMeanFollowsPacketCounts) {
  // A heavy perfect flow and a light broken one: the weighted mean must
  // sit near the heavy flow, the plain mean halfway.
  const std::vector<FlowComparison> flows = {row(1.0, 90), row(0.5, 10)};
  const FlowAggregate agg = aggregate_flows(flows);
  EXPECT_DOUBLE_EQ(agg.mean, 0.75);
  EXPECT_DOUBLE_EQ(agg.weighted_mean, (180.0 + 10.0) / 200.0);
  EXPECT_EQ(agg.worst, 0.5);
}

TEST(FlowKappa, RetiredIdsAreSkippedAndEmptySetIsVacuouslyConsistent) {
  FlowComparison retired;  // in neither trial: a retired id slot
  const std::vector<FlowComparison> flows = {retired};
  const FlowAggregate agg = aggregate_flows(flows);
  EXPECT_EQ(agg.flows, 0u);
  EXPECT_EQ(agg.worst, 1.0);
  EXPECT_EQ(agg.p99, 1.0);
  EXPECT_EQ(agg.p999, 1.0);
  EXPECT_EQ(agg.weighted_mean, 1.0);
}

TEST(FlowKappa, CompareByKeyRemapsBIntoAsIdSpace) {
  // Two tables classified the same two keys in opposite arrival order;
  // compare_flows must match them by key, not by raw id.
  FlowKey k0{.src_ip = 1, .dst_ip = 2, .src_port = 10, .dst_port = 20};
  FlowKey k1{.src_ip = 1, .dst_ip = 2, .src_port = 11, .dst_port = 20};
  FlowTable ta, tb;
  ta.classify(k0);  // A: k0 -> 0, k1 -> 1
  ta.classify(k1);
  tb.classify(k1);  // B: k1 -> 0, k0 -> 1
  tb.classify(k0);

  core::Trial a({packet(0, 0), packet(1, 1000)});
  core::Trial b({packet(1, 0), packet(0, 1000)});
  const std::vector<FlowId> ids_a = {0, 1};  // k0 then k1
  const std::vector<FlowId> ids_b = {0, 1};  // k1 then k0

  const auto cmp = compare_flows(a, ta, ids_a, b, tb, ids_b);
  EXPECT_EQ(cmp.aggregate.matched, 2u);
  EXPECT_EQ(cmp.aggregate.only_a, 0u);
  EXPECT_EQ(cmp.aggregate.only_b, 0u);
  EXPECT_EQ(cmp.flows[0].key, k0);
  EXPECT_EQ(cmp.flows[1].key, k1);
  // Each flow is a single identical packet on its own timebase: perfect.
  EXPECT_EQ(cmp.aggregate.worst, 1.0);
}

}  // namespace
}  // namespace choir::flow
