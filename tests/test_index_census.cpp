// Where the packet ids of whole experiments are stored: the share of ids
// that core::PacketIdIndex keeps in direct-addressed lanes rather than in
// its spill, over every index an experiment fills (trial building, the
// reference index, the κ kernel's B-only set, per-flow and monitor
// comparisons). Each case is a scaled-down perfbench workload or a
// replay group of N nodes, run under PacketIdIndex::census(); it prints
// the share and gates the floor each shape must keep. A stored id's
// lookup is answered where it is stored, so the share is also the share
// of hits a lane answers.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/compare_scratch.hpp"
#include "core/metrics.hpp"
#include "core/packet_id_index.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir::testbed {
namespace {

using core::PacketIdIndex;

/// Lane share of the ids indexed while `work` runs.
template <typename F>
double lane_share(const char* label, F&& work) {
  const PacketIdIndex::Census before = PacketIdIndex::census();
  work();
  const PacketIdIndex::Census after = PacketIdIndex::census();
  const std::uint64_t lane = after.lane_ids - before.lane_ids;
  const std::uint64_t spilled = after.spilled_ids - before.spilled_ids;
  EXPECT_GT(lane + spilled, 0u);
  const double share =
      static_cast<double>(lane) / static_cast<double>(lane + spilled);
  std::printf("%-16s %10llu ids, %10llu spilled, lane share %.4f\n", label,
              static_cast<unsigned long long>(lane + spilled),
              static_cast<unsigned long long>(spilled), share);
  return share;
}

/// perfbench's record_replay at a fifth of its packets.
TEST(IndexCensus, RecordReplay) {
  ExperimentConfig cfg;
  cfg.env = local_single();
  cfg.packets = 20'000;
  cfg.runs = 5;
  cfg.seed = 1;
  cfg.eval_jobs = 1;
  EXPECT_GT(lane_share("record_replay", [&] { run_experiment(cfg); }), 0.99);
}

/// perfbench's offline_compare operation (build both trials, compare) on
/// a tenth of its packets.
TEST(IndexCensus, OfflineCompare) {
  ExperimentConfig cfg;
  cfg.env = local_dual();
  cfg.packets = 100'000;
  cfg.runs = 2;
  cfg.seed = 1;
  cfg.eval_jobs = 1;
  cfg.keep_captures = true;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_EQ(r.captures.size(), 2u);
  const double share = lane_share("offline_compare", [&] {
    const core::Trial a = rebased_trial(r.captures[0]);
    const core::Trial b = rebased_trial(r.captures[1]);
    core::compare_trials(a, b);
  });
  EXPECT_GT(share, 0.99);
}

/// perfbench's group_flows at a fifth of its packets. Its per-flow
/// trials are sparse slices of each replayer's sequence, so their ids
/// spill; the same run without per-flow evaluation shows that the rest
/// (trials, reference indexes, monitor windows) stays in lanes.
TEST(IndexCensus, GroupFlows) {
  ExperimentConfig cfg;
  cfg.env = fabric_shared_40_noisy();
  cfg.env.replayers = 4;
  net::NoiseConfig& noise = cfg.env.noise;
  noise.min_rate = noise.max_rate = 0.5 * (noise.min_rate + noise.max_rate);
  cfg.packets = 20'000;
  cfg.runs = 5;
  cfg.seed = 1;
  cfg.eval_jobs = 1;
  cfg.group.enabled = true;
  cfg.flow.enabled = true;
  cfg.flow.flows = 4096;
  cfg.monitor.enabled = true;
  cfg.obs.enabled = true;
  EXPECT_GT(lane_share("group_flows", [&] { run_experiment(cfg); }), 0.5);
  cfg.flow.enabled = false;
  EXPECT_GT(lane_share("  no per-flow", [&] { run_experiment(cfg); }), 0.99);
}

/// bench_paper group_scaling's replay group of `nodes` nodes, without
/// per-flow evaluation: every trial interleaves `nodes` tagged senders.
ExperimentConfig group_of(int nodes) {
  ExperimentConfig cfg;
  cfg.env = local_single();
  cfg.env.replayers = nodes;
  cfg.env.replayer_sync_fraction_of_run = 0.0;
  cfg.env.replayer_sync_sigma_ns = 25.0;
  cfg.packets = 8192;
  cfg.runs = 2;
  cfg.seed = 2025;
  cfg.eval_jobs = 1;
  cfg.group.enabled = true;
  cfg.group.config.beacon_interval = microseconds(100);
  cfg.group.config.check_interval = microseconds(250);
  cfg.group.config.straggle_threshold = microseconds(400);
  cfg.group.config.resync_slack = microseconds(50);
  cfg.group.config.resync_retry = microseconds(500);
  return cfg;
}

TEST(IndexCensus, GroupsPastTheStagedSpillKeepTheirLanes) {
  // 16 nodes fit the staged spill; 17 and 64 overflow it in the first
  // round of ids, and their lanes open from the spill table instead.
  for (const int nodes : {16, 17, 64}) {
    const std::string label = "group n=" + std::to_string(nodes);
    const ExperimentConfig cfg = group_of(nodes);
    EXPECT_GT(lane_share(label.c_str(), [&] { run_experiment(cfg); }), 0.95)
        << label;
  }
}

}  // namespace
}  // namespace choir::testbed
