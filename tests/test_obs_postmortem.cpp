// Postmortem root-cause analysis on full faulted group runs (chaos
// label): each `choirctl postmortem` chaos preset must produce a merged
// timeline whose analyzer names the faulted node and the injected fault
// as root cause — and the merged artifacts must stay byte-identical
// across --jobs values even under faults.
#include <gtest/gtest.h>

#include "analysis/postmortem.hpp"
#include "common/task_pool.hpp"
#include "fault/chaos.hpp"
#include "obs/flight_log.hpp"
#include "obs/group_trace.hpp"
#include "obs/postmortem.hpp"
#include "testbed/experiment.hpp"

namespace choir {
namespace {

/// The group-chaos config (mirrors test_group_chaos.cpp): tight health
/// cadence so straggling is observable inside a ~2 ms trial.
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
  cfg.group.config.beacon_interval = microseconds(100);
  cfg.group.config.check_interval = microseconds(250);
  cfg.group.config.straggle_threshold = microseconds(400);
  cfg.group.config.resync_slack = microseconds(50);
  cfg.group.config.resync_retry = microseconds(500);
  cfg.obs.enabled = true;
  return cfg;
}

TEST(ObsPostmortem, StallPresetNamesStalledNodeAndFault) {
  // The acceptance scenario: node 1's NIC stalls mid-replay, the
  // coordinator resyncs it, and the postmortem must walk the merged
  // timeline back to the nic_tx_stall activation on node 11.
  testbed::ExperimentConfig cfg = group_config(3, 6000);
  const testbed::ReplaySchedule s = testbed::replay_schedule(cfg);
  cfg.env.faults = fault::group_node_stall_plan(
      1, s.wall_start(1) + s.trial_duration / 4, 2 * s.trial_duration / 3);
  const auto result = testbed::run_experiment(cfg);
  ASSERT_NE(result.flight_log, nullptr);

  const obs::GroupTimeline timeline = obs::merge_timeline(*result.flight_log);
  const obs::PostmortemReport report =
      obs::analyze_timeline(*result.flight_log, timeline);

  ASSERT_FALSE(report.outcomes.empty());
  bool named = false;
  for (const obs::Outcome& out : report.outcomes) {
    if (out.kind != obs::OutcomeKind::kResync) continue;
    EXPECT_EQ(out.node, 11);  // repl_node_id(1)
    EXPECT_NE(out.root_cause.find("nic_tx_stall"), std::string::npos);
    EXPECT_NE(out.root_cause.find("nic.repl1-out"), std::string::npos);
    EXPECT_NE(out.root_cause.find("node 11"), std::string::npos);
    EXPECT_GE(out.chain.size(), 3u);  // fault -> straggle -> resync
    named = true;
  }
  EXPECT_TRUE(named) << "no resync outcome blamed the stalled node";
  // The rendered report carries the verdict for the operator.
  const std::string text =
      analysis::render_postmortem(*result.flight_log, timeline, report);
  EXPECT_NE(text.find("nic_tx_stall"), std::string::npos);
  EXPECT_NE(text.find("repl1"), std::string::npos);
}

TEST(ObsPostmortem, ClockDegradePresetFlagsClockAnomaly) {
  testbed::ExperimentConfig cfg = group_config(3, 4000);
  const testbed::ReplaySchedule s = testbed::replay_schedule(cfg);
  cfg.env.faults = fault::group_clock_degrade_plan(
      1, 0, s.round_end(cfg.runs - 1) + milliseconds(10), 1000.0);
  const auto result = testbed::run_experiment(cfg);
  ASSERT_NE(result.flight_log, nullptr);

  const obs::GroupTimeline timeline = obs::merge_timeline(*result.flight_log);
  const obs::PostmortemReport report =
      obs::analyze_timeline(*result.flight_log, timeline);

  bool anomaly = false;
  for (const obs::Outcome& out : report.outcomes) {
    if (out.kind != obs::OutcomeKind::kClockAnomaly) continue;
    EXPECT_EQ(out.node, 11);
    EXPECT_NE(out.root_cause.find("clock_degrade"), std::string::npos);
    EXPECT_NE(out.root_cause.find("clock.repl1"), std::string::npos);
    anomaly = true;
  }
  EXPECT_TRUE(anomaly) << "degraded servo never flagged a clock anomaly";
}

TEST(ObsPostmortem, ControlLossPresetRecordsFaultAndRetriesSurvive) {
  // A half-lossy control path with retry enabled is absorbed — no bad
  // outcome — but the timeline still shows the fault activation and the
  // member status surfaces the retry traffic (the choirctl summary
  // columns read these fields).
  testbed::ExperimentConfig cfg = group_config(3, 4000);
  cfg.env.control_retry.max_attempts = 6;
  cfg.env.control_retry.initial_backoff = microseconds(100);
  cfg.env.control_retry.multiplier = 2.0;
  cfg.env.control_retry.timeout = milliseconds(4);
  cfg.env.faults = fault::group_control_loss_plan(1, 0, seconds(10), 0.5);
  const auto result = testbed::run_experiment(cfg);
  ASSERT_NE(result.flight_log, nullptr);

  const obs::GroupTimeline timeline = obs::merge_timeline(*result.flight_log);
  bool fault_seen = false;
  for (const auto& te : timeline.events) {
    if (te.e.kind != obs::EventKind::kFaultActive) continue;
    const std::string& point = result.flight_log->point_name(
        static_cast<std::uint16_t>(te.e.b));
    EXPECT_EQ(point, "link.to-repl1");
    fault_seen = true;
  }
  EXPECT_TRUE(fault_seen) << "control-loss activation never recorded";

  const obs::PostmortemReport report =
      obs::analyze_timeline(*result.flight_log, timeline);
  for (const obs::Outcome& out : report.outcomes) {
    EXPECT_NE(out.kind, obs::OutcomeKind::kEviction);
  }
  ASSERT_EQ(result.group_members.size(), 3u);
  for (const auto& m : result.group_members) {
    EXPECT_GT(m.ctl_sent, 0u);
    EXPECT_GT(m.ctl_retries, 0u);  // redundancy covers the lossy path
    EXPECT_EQ(m.ctl_timeouts, 0u);
  }
}

TEST(ObsPostmortem, FaultedArtifactsAreByteIdenticalAcrossJobs) {
  testbed::ExperimentConfig cfg = group_config(3, 6000);
  const testbed::ReplaySchedule s = testbed::replay_schedule(cfg);
  cfg.env.faults = fault::group_node_stall_plan(
      1, s.wall_start(1) + s.trial_duration / 4, 2 * s.trial_duration / 3);
  // Two copies side by side on pool workers, as a bench row runs its
  // configs.
  const auto runs = parallel_map_indexed<testbed::ExperimentResult>(
      2, 2, [&](std::size_t) { return testbed::run_experiment(cfg); });
  const auto& seq = runs[0];
  const auto& par = runs[1];
  ASSERT_NE(seq.flight_log, nullptr);
  ASSERT_NE(par.flight_log, nullptr);

  const obs::GroupTimeline ts = obs::merge_timeline(*seq.flight_log);
  const obs::GroupTimeline tp = obs::merge_timeline(*par.flight_log);
  EXPECT_EQ(obs::render_group_trace(*seq.flight_log, ts),
            obs::render_group_trace(*par.flight_log, tp));
  EXPECT_EQ(obs::render_events_jsonl(*seq.flight_log, ts),
            obs::render_events_jsonl(*par.flight_log, tp));
  const obs::PostmortemReport rs = obs::analyze_timeline(*seq.flight_log, ts);
  const obs::PostmortemReport rp = obs::analyze_timeline(*par.flight_log, tp);
  EXPECT_EQ(analysis::render_postmortem_json(*seq.flight_log, ts, rs),
            analysis::render_postmortem_json(*par.flight_log, tp, rp));
}

}  // namespace
}  // namespace choir
