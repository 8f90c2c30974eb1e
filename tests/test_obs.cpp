// Group observability: flight-recorder ring semantics (wrap, sampling),
// trace-context packing, PTP rebase, timeline merging, the synthetic
// postmortem analyzer, and the zero-perturbation / byte-determinism
// contracts at the experiment level (obs on vs off bit-identical;
// merged artifacts byte-identical across --jobs values).
#include <gtest/gtest.h>

#include "analysis/postmortem.hpp"
#include "common/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/flight_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/group_trace.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace_context.hpp"
#include "testbed/experiment.hpp"

namespace choir {
namespace {

obs::FlightEvent event_at(Ns t, obs::EventKind kind) {
  obs::FlightEvent e{};
  e.t_wall = t;
  e.kind = kind;
  return e;
}

TEST(FlightRecorder, WrapOverwritesOldestAndKeepsOrder) {
  obs::FlightRecorder ring(7, 8);
  for (int i = 0; i < 20; ++i) {
    obs::FlightEvent e = event_at(i * 10, obs::EventKind::kBeaconSend);
    e.a = i;
    ring.record(e);
  }
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.overwritten(), 12u);

  std::vector<obs::FlightEvent> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Oldest surviving event is #12; sequence and payload stay aligned.
    EXPECT_EQ(out[i].a, static_cast<std::int64_t>(12 + i));
    EXPECT_EQ(out[i].seq, 12 + i);
    EXPECT_EQ(out[i].node, 7);
  }
}

TEST(FlightRecorder, SnapshotBeforeWrapIsOldestFirst) {
  obs::FlightRecorder ring(1, 16);
  for (int i = 0; i < 3; ++i) {
    ring.record(event_at(100 + i, obs::EventKind::kPtpSync));
  }
  std::vector<obs::FlightEvent> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t_wall, 100);
  EXPECT_EQ(out[2].t_wall, 102);
}

TEST(FlightRecorder, RoundSamplingGatesHighVolumeEvents) {
  obs::FlightRecorder ring(1, 32, /*sample_every=*/3);
  // Rounds 0, 3, 6... are sampled; the record phase (round < 0) always is.
  EXPECT_TRUE(ring.round_sampled(0));
  EXPECT_FALSE(ring.round_sampled(1));
  EXPECT_FALSE(ring.round_sampled(2));
  EXPECT_TRUE(ring.round_sampled(3));
  EXPECT_TRUE(ring.round_sampled(-1));

  for (int round = 0; round < 6; ++round) {
    obs::FlightEvent e = event_at(round, obs::EventKind::kBeaconRecv);
    e.round = round;
    ring.record_sampled(e);
  }
  EXPECT_EQ(ring.size(), 2u);  // rounds 0 and 3

  obs::FlightEvent record_phase = event_at(7, obs::EventKind::kControlSend);
  record_phase.round = -1;
  ring.record_sampled(record_phase);
  EXPECT_EQ(ring.size(), 3u);
}

TEST(TraceContext, PackUnpackRoundTrips) {
  const obs::TraceContext ctx{0xdeadbeefu, 0x00c0ffeeu};
  const obs::TraceContext back = obs::unpack_trace(obs::pack_trace(ctx));
  EXPECT_EQ(back.trace, ctx.trace);
  EXPECT_EQ(back.span, ctx.span);
  // The zero word is the untraced sentinel legacy encoders emit.
  const obs::TraceContext none = obs::unpack_trace(0);
  EXPECT_EQ(none.trace, 0u);
  EXPECT_EQ(none.span, 0u);
}

TEST(TraceContext, RoundTraceIdsInvertAndAvoidReservedIds) {
  EXPECT_EQ(obs::round_trace_id(0), 2u);  // 0 = untraced, 1 = record phase
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(obs::round_of_trace(obs::round_trace_id(round)), round);
  }
  EXPECT_EQ(obs::round_of_trace(obs::kRecordTraceId), -1);
  EXPECT_EQ(obs::round_of_trace(0), -1);
}

TEST(TraceContext, SpanAllocatorEmbedsNodeAndNeverCollides) {
  obs::SpanAllocator a(3), b(11);
  const std::uint32_t sa = a.next();
  const std::uint32_t sb = b.next();
  EXPECT_EQ(obs::span_node(sa), 3);
  EXPECT_EQ(obs::span_node(sb), 11);
  EXPECT_NE(sa, sb);
  EXPECT_NE(a.next(), sa);  // per-node sequence advances
}

TEST(FlightLog, RebaseUsesLatestCorrectionAtOrBefore) {
  obs::FlightLog log(16);
  log.add_node(11, "repl1");
  log.note_sync(11, 100, 10.0);   // at believed t=100 the clock was +10ns
  log.note_sync(11, 200, -5.0);

  EXPECT_DOUBLE_EQ(log.rebase(11, 50), 40.0);    // before first: use first
  EXPECT_DOUBLE_EQ(log.rebase(11, 150), 140.0);  // between: first applies
  EXPECT_DOUBLE_EQ(log.rebase(11, 300), 305.0);  // after second: -(-5)
  // A node with no history rebases to its own clock.
  log.add_node(12, "repl2");
  EXPECT_DOUBLE_EQ(log.rebase(12, 777), 777.0);
}

TEST(FlightLog, AddNodeIsIdempotentAndPointersAreStable) {
  obs::FlightLog log(8);
  obs::FlightRecorder* first = &log.add_node(3, "coordinator");
  // Later registrations must not invalidate the earlier hook pointer —
  // producers hold it for the whole run.
  for (std::uint16_t id = 10; id < 20; ++id) {
    log.add_node(id, "repl");
  }
  EXPECT_EQ(first, &log.add_node(3, "renamed"));
  EXPECT_EQ(log.label(3), "coordinator");  // first label wins
  first->record(event_at(1, obs::EventKind::kRoundStart));
  EXPECT_EQ(log.node(3)->size(), 1u);
}

TEST(FlightLog, MergeTimelineOrdersAcrossNodesByRebasedTime) {
  obs::FlightLog log(16);
  log.add_node(3, "coordinator");
  log.add_node(11, "repl1");
  // repl1's clock runs 1000ns ahead, so its believed t=1500 event truly
  // happened at 500 — before the coordinator's t=1000 event.
  log.note_sync(11, 0, 1000.0);
  log.node(3)->record(event_at(1000, obs::EventKind::kRoundStart));
  log.node(11)->record(event_at(1500, obs::EventKind::kReplayStart));

  const obs::GroupTimeline timeline = obs::merge_timeline(log);
  // note_sync also records a kPtpSync event on repl1's ring at t=0.
  ASSERT_EQ(timeline.events.size(), 3u);
  EXPECT_EQ(timeline.events[0].e.kind, obs::EventKind::kPtpSync);
  EXPECT_EQ(timeline.events[1].e.kind, obs::EventKind::kReplayStart);
  EXPECT_DOUBLE_EQ(timeline.events[1].t_est, 500.0);
  EXPECT_EQ(timeline.events[2].e.kind, obs::EventKind::kRoundStart);
}

/// A hand-built incident: a NIC stall fault on repl1 (node 11), the
/// coordinator sees it straggle, then commands a resync.
obs::FlightLog synthetic_stall_log() {
  obs::FlightLog log(32);
  log.add_node(3, "coordinator");
  log.add_node(11, "repl1");
  const std::uint16_t pid = log.intern_point("nic.repl1-out", 11);

  obs::FlightEvent fault = event_at(1000, obs::EventKind::kFaultActive);
  fault.code = static_cast<std::uint16_t>(fault::FaultKind::kNicTxStall);
  fault.b = pid;
  log.node(11)->record(fault);

  obs::FlightEvent straggle = event_at(2000, obs::EventKind::kStraggle);
  straggle.peer = 11;
  straggle.round = 1;
  straggle.a = 400'000;  // lag behind the horizon, ns
  log.node(3)->record(straggle);

  obs::FlightEvent resync = event_at(3000, obs::EventKind::kResyncCmd);
  resync.peer = 11;
  resync.round = 1;
  log.node(3)->record(resync);
  return log;
}

TEST(Postmortem, SyntheticStallBlamesFaultOnStragglingNode) {
  const obs::FlightLog log = synthetic_stall_log();
  const obs::GroupTimeline timeline = obs::merge_timeline(log);
  const obs::PostmortemReport report = obs::analyze_timeline(log, timeline);

  ASSERT_EQ(report.outcomes.size(), 1u);
  const obs::Outcome& out = report.outcomes[0];
  EXPECT_EQ(out.kind, obs::OutcomeKind::kResync);
  EXPECT_EQ(out.node, 11);
  EXPECT_EQ(out.round, 1);
  EXPECT_NE(out.root_cause.find("nic_tx_stall"), std::string::npos);
  EXPECT_NE(out.root_cause.find("nic.repl1-out"), std::string::npos);
  EXPECT_NE(out.root_cause.find("node 11"), std::string::npos);
  // Chain runs root-first: fault, straggle, then the resync outcome.
  ASSERT_GE(out.chain.size(), 3u);
  EXPECT_EQ(timeline.events[out.chain.front().event].e.kind,
            obs::EventKind::kFaultActive);
  EXPECT_EQ(out.chain.back().event, out.event);
  EXPECT_LE(out.blame_from_ns, out.blame_to_ns);
  EXPECT_FALSE(report.kappa_gate_failed);
}

TEST(Postmortem, ResyncRetryStormCoalescesToOneIncident) {
  obs::FlightLog log = synthetic_stall_log();
  for (int i = 0; i < 4; ++i) {  // retries of the same (member, round)
    obs::FlightEvent retry = event_at(3500 + i, obs::EventKind::kResyncCmd);
    retry.peer = 11;
    retry.round = 1;
    log.node(3)->record(retry);
  }
  const obs::GroupTimeline timeline = obs::merge_timeline(log);
  const obs::PostmortemReport report = obs::analyze_timeline(log, timeline);
  EXPECT_EQ(report.outcomes.size(), 1u);
}

TEST(Postmortem, KappaGateFlagsFailingRoundAndBorrowsBlame) {
  obs::FlightLog log = synthetic_stall_log();
  obs::FlightEvent kappa = event_at(5000, obs::EventKind::kKappaRound);
  kappa.round = 1;
  kappa.f = 0.42;
  log.node(3)->record(kappa);

  obs::PostmortemOptions opt;
  opt.kappa_gate = 0.9;
  const obs::GroupTimeline timeline = obs::merge_timeline(log);
  const obs::PostmortemReport report =
      obs::analyze_timeline(log, timeline, opt);

  EXPECT_TRUE(report.kappa_gate_failed);
  ASSERT_EQ(report.outcomes.size(), 2u);  // resync + gated round
  const obs::Outcome& gate = report.outcomes[1];
  EXPECT_EQ(gate.kind, obs::OutcomeKind::kKappaGate);
  EXPECT_EQ(gate.node, 11);  // blame borrowed from the round's resync
  // Below-gate rounds are incidents; a healthy kappa is not.
  obs::PostmortemOptions lax;
  lax.kappa_gate = 0.1;
  EXPECT_FALSE(
      obs::analyze_timeline(log, timeline, lax).kappa_gate_failed);
}

TEST(Postmortem, BarrierResidualPastGateIsClockAnomaly) {
  obs::FlightLog log(16);
  log.add_node(3, "coordinator");
  obs::FlightEvent sample = event_at(1000, obs::EventKind::kBarrierSample);
  sample.peer = 12;
  sample.round = 0;
  sample.f = 50'000.0;  // ns, past the 10us default gate
  log.node(3)->record(sample);

  const obs::GroupTimeline timeline = obs::merge_timeline(log);
  const obs::PostmortemReport report = obs::analyze_timeline(log, timeline);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].kind, obs::OutcomeKind::kClockAnomaly);
  EXPECT_EQ(report.outcomes[0].node, 12);
}

TEST(GroupTrace, RenderersAreByteDeterministic) {
  const obs::FlightLog a = synthetic_stall_log();
  const obs::FlightLog b = synthetic_stall_log();
  const obs::GroupTimeline ta = obs::merge_timeline(a);
  const obs::GroupTimeline tb = obs::merge_timeline(b);
  EXPECT_EQ(obs::render_group_trace(a, ta), obs::render_group_trace(b, tb));
  EXPECT_EQ(obs::render_events_jsonl(a, ta),
            obs::render_events_jsonl(b, tb));
  const obs::PostmortemReport ra = obs::analyze_timeline(a, ta);
  const obs::PostmortemReport rb = obs::analyze_timeline(b, tb);
  EXPECT_EQ(analysis::render_postmortem_json(a, ta, ra),
            analysis::render_postmortem_json(b, tb, rb));
  // The human report names the incident the same way.
  const std::string text = analysis::render_postmortem(a, ta, ra);
  EXPECT_NE(text.find("nic_tx_stall"), std::string::npos);
}

testbed::ExperimentConfig small_group_config() {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.env.replayers = 3;
  cfg.env.replayer_sync_fraction_of_run = 0.0;
  cfg.env.replayer_sync_sigma_ns = 25.0;
  cfg.packets = 2000;
  cfg.runs = 2;
  cfg.seed = 11;
  cfg.collect_series = false;
  cfg.group.enabled = true;
  return cfg;
}

TEST(ObsExperiment, RecordingIsZeroPerturbation) {
  // The flight recorder must observe without steering: the same seeded
  // run is bit-identical with recording on or off.
  testbed::ExperimentConfig cfg = small_group_config();
  const auto off = testbed::run_experiment(cfg);
  cfg.obs.enabled = true;
  const auto on = testbed::run_experiment(cfg);

  EXPECT_EQ(off.mean.kappa, on.mean.kappa);
  EXPECT_EQ(off.mean.latency, on.mean.latency);
  EXPECT_EQ(off.mean.ordering, on.mean.ordering);
  EXPECT_EQ(off.capture_sizes, on.capture_sizes);
  EXPECT_EQ(off.recorded_packets, on.recorded_packets);
  EXPECT_EQ(off.group_stats.beacons_rx, on.group_stats.beacons_rx);
  ASSERT_NE(on.flight_log, nullptr);
  EXPECT_EQ(off.flight_log, nullptr);
}

TEST(ObsExperiment, FlightLogCoversCoordinatorAndEveryReplayer) {
  testbed::ExperimentConfig cfg = small_group_config();
  cfg.obs.enabled = true;
  const auto result = testbed::run_experiment(cfg);
  ASSERT_NE(result.flight_log, nullptr);
  const obs::FlightLog& log = *result.flight_log;
  ASSERT_EQ(log.node_ids().size(), 4u);  // coordinator + 3 replayers
  for (std::uint16_t id : log.node_ids()) {
    EXPECT_GT(log.node(id)->size(), 0u)
        << "node " << id << " recorded nothing";
  }
  // Every node's clock history is populated by the sync observer, so
  // the merger has residual evidence to rebase with.
  for (std::uint16_t id : log.node_ids()) {
    EXPECT_FALSE(log.clock_history(id).empty());
  }
  // Control-channel tracing reached the members: some events carry a
  // trace context.
  const obs::GroupTimeline timeline = obs::merge_timeline(log);
  std::size_t traced = 0;
  for (const auto& te : timeline.events) {
    if (te.e.trace != 0) ++traced;
  }
  EXPECT_GT(traced, 0u);
}

TEST(ObsExperiment, MergedArtifactsAreByteIdenticalAcrossEvalJobs) {
  // Two copies of one run side by side on pool workers, as a bench row
  // runs its configs.
  testbed::ExperimentConfig cfg = small_group_config();
  cfg.obs.enabled = true;
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
}

TEST(ObsExperiment, TraceSamplingThinsRoundEventsOnly) {
  testbed::ExperimentConfig cfg = small_group_config();
  cfg.runs = 4;
  cfg.obs.enabled = true;
  const auto full = testbed::run_experiment(cfg);
  cfg.obs.sample_every = 4;  // only round 0 of 0..3 sampled
  const auto thin = testbed::run_experiment(cfg);

  auto count_events = [](const obs::FlightLog& log, bool round_scoped) {
    std::size_t n = 0;
    std::vector<obs::FlightEvent> ring;
    for (std::uint16_t id : log.node_ids()) {
      ring.clear();
      log.node(id)->snapshot(ring);
      for (const auto& e : ring) {
        if ((e.round >= 0) == round_scoped) ++n;
      }
    }
    return n;
  };
  EXPECT_LT(count_events(*thin.flight_log, true),
            count_events(*full.flight_log, true));
  // Sampling must not perturb the run itself.
  EXPECT_EQ(full.mean.kappa, thin.mean.kappa);
  EXPECT_EQ(full.capture_sizes, thin.capture_sizes);
}

}  // namespace
}  // namespace choir
