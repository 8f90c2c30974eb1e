// Replay-group protocol, quiet paths: beacon packing, exact packet
// splits, flow-sharded trace partitioning, and an end-to-end N-node
// barrier-started run that completes cleanly and deterministically.
// (Faulted group runs — stragglers, resync, eviction — live in the
// chaos-labelled test_group_chaos.)
#include "choir/group.hpp"

#include <gtest/gtest.h>

#include "common/task_pool.hpp"
#include "testbed/experiment.hpp"
#include "trace/flow_classify.hpp"
#include "trace/partition.hpp"

namespace choir {
namespace {

TEST(GroupProtocol, BeaconPackRoundTrip) {
  const std::uint64_t arg =
      app::pack_beacon(0x1234, app::BeaconPhase::kReplaying, 0xabc,
                       microseconds(123456));
  const app::BeaconFields f = app::unpack_beacon(arg);
  EXPECT_EQ(f.member, 0x1234);
  EXPECT_EQ(f.phase, app::BeaconPhase::kReplaying);
  EXPECT_EQ(f.round, 0xabc);
  EXPECT_EQ(f.progress, microseconds(123456));
}

TEST(GroupProtocol, BeaconPackClampsAndTruncates) {
  // Progress is carried in whole microseconds and saturates at 32 bits;
  // the round field wraps at 12 bits.
  const app::BeaconFields f = app::unpack_beacon(
      app::pack_beacon(7, app::BeaconPhase::kDone, 0x1fff, 1234));
  EXPECT_EQ(f.round, 0xfff);
  EXPECT_EQ(f.progress, microseconds(1));  // 1234 ns -> 1 us floor
  const app::BeaconFields sat = app::unpack_beacon(
      app::pack_beacon(7, app::BeaconPhase::kIdle, 0, Ns{1} << 62));
  EXPECT_EQ(sat.progress, microseconds(0xffffffffULL));
}

TEST(GroupProtocol, MemberStateNames) {
  EXPECT_STREQ(app::member_state_name(app::MemberState::kJoining), "JOINING");
  EXPECT_STREQ(app::member_state_name(app::MemberState::kEvicted), "EVICTED");
}

TEST(GroupProtocol, PacketSplitConservesExactly) {
  // The split must conserve the total for any (total, N), including
  // totals that do not divide evenly — the old floor-share split lost
  // up to N-1 packets per trial.
  for (const int n : {3, 5, 7}) {
    for (const std::uint64_t total : {20'000ULL, 16'001ULL, 99ULL, 7ULL}) {
      std::uint64_t sum = 0;
      std::uint64_t lo = total, hi = 0;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t share = testbed::packets_for_replayer(total, n, i);
        sum += share;
        lo = std::min(lo, share);
        hi = std::max(hi, share);
      }
      EXPECT_EQ(sum, total) << "N=" << n << " total=" << total;
      EXPECT_LE(hi - lo, 1u) << "shares must differ by at most one packet";
    }
  }
}

trace::CaptureRecord udp_record(std::uint16_t src_node, std::uint16_t port,
                                Ns ts, std::uint64_t token) {
  pktio::Frame frame;
  frame.wire_len = 200;
  pktio::FlowAddress f;
  f.src_mac = pktio::mac_for_node(src_node);
  f.dst_mac = pktio::mac_for_node(4);
  f.src_ip = pktio::ip_for_node(src_node);
  f.dst_ip = pktio::ip_for_node(4);
  f.src_port = port;
  f.dst_port = 7001;
  pktio::write_eth_ipv4_udp(frame, f);
  frame.payload_token = token;
  return trace::CaptureRecord::from_frame(frame, ts);
}

TEST(GroupProtocol, PartitionConservesAndRebases) {
  trace::Capture cap("mix");
  const int kFlows = 24;
  for (int i = 0; i < 240; ++i) {
    cap.append(udp_record(1, static_cast<std::uint16_t>(7100 + i % kFlows),
                          milliseconds(3) + i * 1000,
                          static_cast<std::uint64_t>(i)));
  }
  const trace::PartitionResult part = trace::partition_capture(cap, 4);
  ASSERT_EQ(part.nodes.size(), 4u);
  EXPECT_EQ(part.epoch, milliseconds(3));
  std::size_t total = 0;
  for (const auto& node : part.nodes) total += node.size();
  EXPECT_EQ(total, cap.size());  // conservation
  // Rebase: the globally earliest record now sits at 0, and every node's
  // records keep their original spacing relative to the shared epoch.
  Ns earliest = -1;
  for (const auto& node : part.nodes) {
    for (const auto& r : node.records()) {
      EXPECT_GE(r.timestamp, 0);
      if (earliest < 0 || r.timestamp < earliest) earliest = r.timestamp;
    }
  }
  EXPECT_EQ(earliest, 0);
  // Flow affinity: every packet of a flow lands on the shard node that
  // owns its key.
  for (std::size_t n = 0; n < part.nodes.size(); ++n) {
    for (const auto& r : part.nodes[n].records()) {
      flow::FlowKey key;
      ASSERT_TRUE(trace::key_of_record(r, &key));
      EXPECT_EQ(flow::shard_of_key(key, 4), static_cast<int>(n));
    }
  }
  EXPECT_EQ(part.unclassified, 0u);
}

TEST(GroupProtocol, PartitionRoutesUnparseableToNodeZero) {
  trace::Capture cap("raw");
  trace::CaptureRecord raw;  // no parseable header stack
  raw.timestamp = 50;
  raw.wire_len = 60;
  cap.append(raw);
  cap.append(udp_record(1, 7100, 10, 1));
  const trace::PartitionResult part = trace::partition_capture(cap, 3);
  EXPECT_EQ(part.unclassified, 1u);
  EXPECT_EQ(part.epoch, 10);
  std::size_t total = 0;
  for (const auto& node : part.nodes) total += node.size();
  EXPECT_EQ(total, 2u);
  // The raw record landed on node 0, rebased to 50 - 10 = 40.
  bool found = false;
  for (const auto& r : part.nodes[0].records()) {
    if (!r.has_trailer && r.payload_token == 0 && r.timestamp == 40) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

testbed::ExperimentConfig quiet_group_config(int nodes) {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.env.replayers = nodes;
  // Bare-metal PTP quality on every replay node: the quiet tests probe
  // the protocol, not sync-induced reordering (that is local_dual's
  // territory, and the bench curve covers it at scale).
  cfg.env.replayer_sync_fraction_of_run = 0.0;
  cfg.env.replayer_sync_sigma_ns = 25.0;
  cfg.packets = 3000;
  cfg.runs = 2;
  cfg.seed = 7;
  cfg.collect_series = false;
  cfg.group.enabled = true;
  cfg.flow.enabled = true;
  cfg.flow.flows = 64;
  cfg.flow.shards = 8;
  return cfg;
}

TEST(GroupProtocol, QuietThreeNodeRunCompletesCleanly) {
  const auto result = testbed::run_experiment(quiet_group_config(3));
  // Every run is one barrier-started round; both completed with every
  // member reaching DONE and nobody straggling or evicted.
  EXPECT_EQ(result.group_stats.rounds_started, 2u);
  EXPECT_EQ(result.group_stats.rounds_completed, 2u);
  EXPECT_EQ(result.group_stats.rounds_degraded, 0u);
  EXPECT_EQ(result.group_stats.members_started, 6u);  // 3 nodes x 2 rounds
  EXPECT_EQ(result.group_stats.ready_timeouts, 0u);
  EXPECT_EQ(result.group_stats.evictions, 0u);
  EXPECT_EQ(result.group_stats.stragglers_detected, 0u);
  ASSERT_EQ(result.group_members.size(), 3u);
  for (const auto& m : result.group_members) {
    EXPECT_EQ(m.state, app::MemberState::kDone);
    EXPECT_GT(m.beacons, 0u);
    EXPECT_EQ(m.resyncs, 0u);
  }
  // The barrier sampled a PTP residual for each member.
  EXPECT_GT(result.group_stats.barrier_worst_residual_ns, 0.0);
  // The replay itself is healthy: all three shards made it to the
  // recorder in both runs and consistency is high.
  ASSERT_EQ(result.middlebox_stats.size(), 3u);
  for (const auto& mb : result.middlebox_stats) {
    EXPECT_GT(mb.group_beacons_sent, 0u);
    EXPECT_EQ(mb.group_prepares, 2u);
    EXPECT_EQ(mb.group_resyncs, 0u);
    EXPECT_EQ(mb.replays_aborted, 0u);
  }
  EXPECT_GE(result.capture_sizes[0], 2950u);
  EXPECT_LE(result.capture_sizes[0], 3000u);
  EXPECT_GE(result.capture_sizes[1], 2950u);
  EXPECT_GT(result.mean.kappa, 0.9);
}

TEST(GroupProtocol, GroupRunIsDeterministic) {
  const auto a = testbed::run_experiment(quiet_group_config(4));
  const auto b = testbed::run_experiment(quiet_group_config(4));
  EXPECT_EQ(a.mean.kappa, b.mean.kappa);
  EXPECT_EQ(a.capture_sizes, b.capture_sizes);
  EXPECT_EQ(a.group_stats.beacons_rx, b.group_stats.beacons_rx);
  EXPECT_EQ(a.group_stats.barrier_worst_residual_ns,
            b.group_stats.barrier_worst_residual_ns);
  ASSERT_EQ(a.group_members.size(), b.group_members.size());
  for (std::size_t i = 0; i < a.group_members.size(); ++i) {
    EXPECT_EQ(a.group_members[i].beacons, b.group_members[i].beacons);
    EXPECT_EQ(a.group_members[i].barrier_residual_ns,
              b.group_members[i].barrier_residual_ns);
  }
}

TEST(GroupProtocol, EvaluationJobsDoNotChangeGroupResults) {
  // Two copies of one group run side by side on pool workers, as a bench
  // row runs its configs.
  testbed::ExperimentConfig cfg = quiet_group_config(3);
  cfg.runs = 3;
  const auto runs = parallel_map_indexed<testbed::ExperimentResult>(
      2, 2, [&](std::size_t) { return testbed::run_experiment(cfg); });
  const auto& seq = runs[0];
  const auto& par = runs[1];
  ASSERT_EQ(seq.comparisons.size(), par.comparisons.size());
  for (std::size_t i = 0; i < seq.comparisons.size(); ++i) {
    EXPECT_EQ(seq.comparisons[i].metrics.kappa,
              par.comparisons[i].metrics.kappa);
  }
  EXPECT_EQ(seq.group_stats.beacons_rx, par.group_stats.beacons_rx);
}

TEST(GroupProtocol, LegacyDualPathStillWorks) {
  // The refactor must leave the hardwired 2-node path byte-compatible:
  // same topology, same controllers, no group machinery.
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_dual();
  cfg.packets = 2000;
  cfg.runs = 2;
  cfg.seed = 7;
  cfg.collect_series = false;
  const auto result = testbed::run_experiment(cfg);
  EXPECT_EQ(result.group_stats.rounds_started, 0u);
  EXPECT_TRUE(result.group_members.empty());
  EXPECT_GT(result.mean.kappa, 0.5);
  for (const auto& mb : result.middlebox_stats) {
    EXPECT_EQ(mb.group_beacons_sent, 0u);
    EXPECT_EQ(mb.group_prepares, 0u);
  }
}

}  // namespace
}  // namespace choir
