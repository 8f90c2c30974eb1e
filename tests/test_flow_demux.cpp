// demux_trial: the counting-sort split of a trial by flow (one array of
// trial positions, one offset per flow). Order preservation, empty-flow
// slots, kNoFlow accounting, and the rebased per-flow load are each
// load-bearing for the per-flow κ path.
#include <gtest/gtest.h>

#include <vector>

#include "core/trial.hpp"
#include "flow/flow_demux.hpp"

namespace choir::flow {
namespace {

core::TrialPacket packet(std::uint64_t seq, Ns time) {
  return {core::PacketId{0xABCD, seq}, time};
}

TEST(FlowDemux, SplitsByIdPreservingArrivalOrder) {
  // Interleaved flows 0 and 1 plus one packet of flow 2.
  core::Trial trial({packet(0, 100), packet(1, 110), packet(2, 120),
                     packet(3, 130), packet(4, 140)});
  const std::vector<FlowId> ids = {0, 1, 0, 2, 0};

  const DemuxResult result = demux_trial(trial, ids, /*flow_count=*/3);
  ASSERT_EQ(result.flows(), 3u);
  EXPECT_EQ(result.unclassified, 0u);
  EXPECT_EQ(result.offsets, (std::vector<std::size_t>{0, 3, 4, 5}));

  EXPECT_EQ(result.positions, (std::vector<std::uint32_t>{0, 2, 4, 1, 3}));

  core::Trial f0;
  result.load_rebased(trial, 0, f0);
  ASSERT_EQ(f0.size(), 3u);
  EXPECT_EQ(f0[0].id.lo, 0u);
  EXPECT_EQ(f0[1].id.lo, 2u);
  EXPECT_EQ(f0[2].id.lo, 4u);
  EXPECT_EQ(f0[0].time, 0);   // rebased: 100 - 100
  EXPECT_EQ(f0[2].time, 40);  // 140 - 100

  ASSERT_EQ(result.flow(1).size(), 1u);
  EXPECT_EQ(result.flow(1)[0], 1u);
  ASSERT_EQ(result.flow(2).size(), 1u);
  EXPECT_EQ(result.flow(2)[0], 3u);
}

TEST(FlowDemux, EmptyFlowsYieldEmptyTrials) {
  // Demuxing run B against run A's (larger) id space: ids A saw but B
  // did not must come back as empty runs, not be skipped.
  core::Trial trial({packet(0, 10), packet(1, 20)});
  const std::vector<FlowId> ids = {4, 4};
  const DemuxResult result = demux_trial(trial, ids, /*flow_count=*/6);
  ASSERT_EQ(result.flows(), 6u);
  for (FlowId f = 0; f < 6; ++f) {
    if (f == 4) {
      EXPECT_EQ(result.flow(f).size(), 2u);
    } else {
      EXPECT_TRUE(result.flow(f).empty());
    }
  }
  // A loaded empty flow is an empty trial, whatever the trial held.
  core::Trial reused({packet(9, 90)});
  result.load_rebased(trial, 5, reused);
  EXPECT_TRUE(reused.empty());
}

TEST(FlowDemux, CountsAndDropsUnclassifiedPackets) {
  core::Trial trial({packet(0, 10), packet(1, 20), packet(2, 30)});
  const std::vector<FlowId> ids = {kNoFlow, 0, kNoFlow};
  const DemuxResult result = demux_trial(trial, ids, /*flow_count=*/1);
  EXPECT_EQ(result.unclassified, 2u);
  ASSERT_EQ(result.flows(), 1u);
  ASSERT_EQ(result.positions.size(), 1u);
  ASSERT_EQ(result.flow(0).size(), 1u);
  EXPECT_EQ(result.flow(0)[0], 1u);
}

TEST(FlowDemux, RebasePutsEachFlowOnItsOwnTimebase) {
  core::Trial trial({packet(0, 1000), packet(1, 1500), packet(2, 1700),
                     packet(3, 2500)});
  const std::vector<FlowId> ids = {0, 1, 0, 1};
  const DemuxResult result = demux_trial(trial, ids, /*flow_count=*/2);
  // load_rebased moves each flow onto its own timebase, reusing one
  // trial for both flows; the demuxed trial keeps its raw times.
  core::Trial t;
  result.load_rebased(trial, 0, t);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.first_time(), 0);
  EXPECT_EQ(t[1].time, 700);  // 1700 - 1000
  EXPECT_EQ(t[1].id.lo, 2u);
  result.load_rebased(trial, 1, t);
  EXPECT_EQ(trial[1].time, 1500);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.first_time(), 0);
  EXPECT_EQ(t[1].time, 1000);  // 2500 - 1500
  EXPECT_EQ(t[1].id.lo, 3u);
}

TEST(FlowDemux, IsAPureFunctionOfItsInputs) {
  // Two identical invocations must agree packet for packet — the
  // property the --jobs byte-identity gate leans on.
  std::vector<core::TrialPacket> packets;
  std::vector<FlowId> ids;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    packets.push_back(packet(i, static_cast<Ns>(i) * 100));
    ids.push_back(static_cast<FlowId>(i % 37));
  }
  const core::Trial trial(std::move(packets));
  const DemuxResult x = demux_trial(trial, ids, 37);
  const DemuxResult y = demux_trial(trial, ids, 37);
  EXPECT_EQ(x.offsets, y.offsets);
  EXPECT_EQ(x.positions, y.positions);
}

}  // namespace
}  // namespace choir::flow
