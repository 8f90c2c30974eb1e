// Replay-group protocol under injected faults (chaos label): straggler
// detection and resync under a mid-replay NIC stall, eviction and
// quorum degradation when a node goes silent, per-flow kappa isolating
// the damage to the missing shard, and sequenced-control robustness
// when the command channel to a node subset turns lossy. Every faulted
// run must also stay bit-identical across repeats and --jobs settings.
#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "testbed/experiment.hpp"

namespace choir {
namespace {

/// The experiment's replay schedule, reproduced so fault windows can be
/// aimed at a specific run's replay phase (same constants as
/// run_experiment; the group tests pin sync sigma so arm_margin is the
/// 5 ms floor).
struct Schedule {
  Ns trial = 0;
  Ns arm = 0;
  Ns wall_start0 = 0;
  Ns spacing = 0;
  Ns wall_start(int r) const { return wall_start0 + r * spacing; }
};

Schedule schedule_for(const testbed::EnvironmentPreset& env,
                      std::uint64_t packets) {
  Schedule s;
  s.trial = static_cast<Ns>(mean_iat_ns(env.frame_bytes, env.rate) *
                            static_cast<double>(packets));
  s.arm = std::max<Ns>(milliseconds(5),
                       static_cast<Ns>(6.0 * env.replayer_sync_sigma_ns));
  const Ns record_end = milliseconds(10) + s.trial + milliseconds(5);
  s.wall_start0 = record_end + milliseconds(30) + s.arm;
  s.spacing = s.trial + 2 * s.arm + milliseconds(40);
  return s;
}

testbed::ExperimentConfig group_config(int nodes, std::uint64_t packets) {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.env.replayers = nodes;
  cfg.env.replayer_sync_fraction_of_run = 0.0;
  cfg.env.replayer_sync_sigma_ns = 25.0;
  cfg.packets = packets;
  cfg.runs = 2;
  cfg.seed = 11;
  cfg.collect_series = false;
  cfg.group.enabled = true;
  cfg.flow.enabled = true;
  cfg.flow.flows = 48;
  cfg.flow.shards = 8;
  // Tight health cadence so straggling is observable inside a ~2 ms
  // trial (the defaults are sized for full-scale runs).
  cfg.group.config.beacon_interval = microseconds(100);
  cfg.group.config.check_interval = microseconds(250);
  cfg.group.config.straggle_threshold = microseconds(400);
  cfg.group.config.resync_slack = microseconds(50);
  cfg.group.config.resync_retry = microseconds(500);
  return cfg;
}

TEST(GroupChaos, StragglerIsResyncedAndRunCompletes) {
  testbed::ExperimentConfig cfg = group_config(3, 6000);
  const Schedule s = schedule_for(cfg.env, cfg.packets);
  // Node 1's out-port stalls for two thirds of run B's replay: its
  // replay TX (and beacons) freeze, the coordinator sees it fall behind
  // the group horizon, and the resync command lands while the node is
  // still stuck — it fast-forwards past the stalled stretch and
  // finishes with the group. (A shorter stall is self-healing: the
  // paced retry loop drains the backlog before any resync arrives.)
  cfg.env.faults = fault::group_node_stall_plan(
      1, s.wall_start(1) + s.trial / 4, 2 * s.trial / 3);
  const auto result = testbed::run_experiment(cfg);

  EXPECT_GE(result.group_stats.stragglers_detected, 1u);
  EXPECT_GE(result.group_stats.resyncs_sent, 1u);
  EXPECT_EQ(result.group_stats.evictions, 0u);
  EXPECT_EQ(result.group_stats.rounds_started, 2u);
  ASSERT_EQ(result.group_members.size(), 3u);
  EXPECT_GE(result.group_members[1].straggles, 1u);
  EXPECT_GE(result.group_members[1].resyncs, 1u);
  EXPECT_EQ(result.group_members[0].resyncs, 0u);
  EXPECT_EQ(result.group_members[2].resyncs, 0u);
  // The member obeyed: it fast-forwarded, skipping recorded packets.
  ASSERT_EQ(result.middlebox_stats.size(), 3u);
  EXPECT_GE(result.middlebox_stats[1].group_resyncs, 1u);
  EXPECT_GT(result.middlebox_stats[1].group_skipped_packets, 0u);
  EXPECT_EQ(result.middlebox_stats[0].group_skipped_packets, 0u);
  EXPECT_EQ(result.middlebox_stats[2].group_skipped_packets, 0u);
  // Run B is thinner than run A by roughly the skipped packets, but the
  // run completed and the surviving traffic still matches.
  EXPECT_LT(result.capture_sizes[1], result.capture_sizes[0]);
  EXPECT_GT(result.mean.kappa, 0.5);
}

TEST(GroupChaos, SilentNodeIsEvictedAndQuorumCompletes) {
  testbed::ExperimentConfig cfg = group_config(3, 6000);
  cfg.group.config.eviction_timeout = milliseconds(2);
  const Schedule s = schedule_for(cfg.env, cfg.packets);
  // Node 2 goes completely silent just before run B's replay begins and
  // stays down past the round: it passed the barrier but emits nothing,
  // beacons stop, the eviction timeout fires, and the round completes
  // (degraded) on the surviving pair — with node 2's flow shard wholly
  // absent from the capture.
  cfg.env.faults = fault::group_node_stall_plan(
      2, s.wall_start(1) - milliseconds(1), s.spacing);
  const auto result = testbed::run_experiment(cfg);

  EXPECT_EQ(result.group_stats.evictions, 1u);
  ASSERT_EQ(result.group_members.size(), 3u);
  EXPECT_EQ(result.group_members[2].state, app::MemberState::kEvicted);
  EXPECT_GE(result.group_stats.rounds_degraded, 1u);
  EXPECT_EQ(result.group_stats.rounds_started, 2u);

  // Per-flow kappa attributes the damage to the evicted node's shard:
  // its flows grade one-sided (missing from run B) while flows on the
  // surviving nodes stay healthy.
  ASSERT_EQ(result.flow_comparisons.size(), 1u);
  const auto& fc = result.flow_comparisons[0];
  std::size_t damaged = 0, healthy = 0;
  for (const auto& f : fc.flows) {
    if (f.metrics.kappa <= 0.5) {
      ++damaged;
    } else if (f.metrics.kappa > 0.9) {
      ++healthy;
    }
  }
  EXPECT_GT(damaged, 0u) << "the evicted shard's flows must grade damaged";
  EXPECT_GT(healthy, 0u) << "surviving shards must stay healthy";
  EXPECT_LE(fc.aggregate.worst, 0.5);
  // Run B's capture is missing the evicted node's packets.
  EXPECT_LT(result.capture_sizes[1], result.capture_sizes[0]);
}

TEST(GroupChaos, LossyControlPathToNodeSubsetIsSurvived) {
  // The egress feeding node 1's in-port drops half its frames across
  // the whole schedule. With retry enabled the sequenced channel keeps
  // command semantics: duplicates are deduped, lost copies are covered
  // by redundant transmissions, and both rounds still start on every
  // node. N=3 keeps two nodes on a clean channel as control.
  testbed::ExperimentConfig cfg = group_config(3, 4000);
  cfg.env.control_retry.max_attempts = 6;
  cfg.env.control_retry.initial_backoff = microseconds(100);
  cfg.env.control_retry.multiplier = 2.0;
  cfg.env.control_retry.timeout = milliseconds(4);
  cfg.env.faults =
      fault::group_control_loss_plan(1, 0, seconds(10), 0.5);
  const auto result = testbed::run_experiment(cfg);

  EXPECT_GT(result.control_retries, 0u);
  EXPECT_EQ(result.group_stats.rounds_started, 2u);
  EXPECT_EQ(result.group_stats.members_started, 6u);
  EXPECT_EQ(result.group_stats.evictions, 0u);
  // Redundant copies that did land were deduped by the sequenced layer.
  std::uint64_t duplicates = 0;
  for (const auto& mb : result.middlebox_stats) {
    duplicates += mb.control_duplicates;
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(result.mean.kappa, 0.8);
}

TEST(GroupChaos, FaultedGroupRunsAreBitIdentical) {
  // Same faulted config twice: the whole outcome — kappa, capture bytes,
  // group accounting — must be identical, or the chaos suite cannot gate
  // regressions.
  testbed::ExperimentConfig cfg = group_config(3, 6000);
  const Schedule s = schedule_for(cfg.env, cfg.packets);
  cfg.env.faults = fault::group_node_stall_plan(
      1, s.wall_start(1) + s.trial / 4, 2 * s.trial / 3);
  cfg.runs = 3;
  const auto a = testbed::run_experiment(cfg);
  const auto b = testbed::run_experiment(cfg);

  EXPECT_EQ(a.mean.kappa, b.mean.kappa);
  EXPECT_EQ(a.capture_sizes, b.capture_sizes);
  EXPECT_EQ(a.group_stats.beacons_rx, b.group_stats.beacons_rx);
  EXPECT_EQ(a.group_stats.resyncs_sent, b.group_stats.resyncs_sent);
  EXPECT_EQ(a.fault_stats.total(), b.fault_stats.total());
  ASSERT_EQ(a.group_members.size(), b.group_members.size());
  for (std::size_t i = 0; i < a.group_members.size(); ++i) {
    EXPECT_EQ(a.group_members[i].beacons, b.group_members[i].beacons);
    EXPECT_EQ(a.group_members[i].resyncs, b.group_members[i].resyncs);
    EXPECT_EQ(a.group_members[i].state, b.group_members[i].state);
  }
}

TEST(GroupChaos, ClockDegradePresetWidensBarrierResiduals) {
  // A clock-degrade window over node 1's PTP servo inflates the residual
  // the barrier samples, without touching the other nodes.
  testbed::ExperimentConfig cfg = group_config(3, 4000);
  const auto quiet = testbed::run_experiment(cfg);
  cfg.env.faults =
      fault::group_clock_degrade_plan(1, 0, seconds(10), 1000.0);
  const auto degraded = testbed::run_experiment(cfg);
  EXPECT_GT(degraded.fault_stats.clock_degrades, 0u);
  EXPECT_GT(degraded.group_stats.barrier_worst_residual_ns,
            quiet.group_stats.barrier_worst_residual_ns);
}

}  // namespace
}  // namespace choir
