// Zero-perturbation regression: a seeded experiment must be bit-identical
// whether telemetry is enabled or not, and an enabled run must actually
// produce the promised coverage (per-port counters, ring high-water
// marks, latency histograms, record/replay trace spans, artifacts). A
// counter a component exposes must equal the component's own count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "testbed/experiment.hpp"

namespace choir::testbed {
namespace {

ExperimentConfig small(bool telemetry, const std::string& dir = {}) {
  ExperimentConfig cfg;
  cfg.env = local_single();
  cfg.packets = 4000;
  cfg.runs = 3;
  cfg.seed = 7;
  cfg.telemetry.enabled = telemetry;
  cfg.artifact_dir = dir;
  return cfg;
}

bool has_trace_event(const telemetry::Tracer& tracer,
                     const std::string& name) {
  const auto& events = tracer.events();
  return std::any_of(events.begin(), events.end(),
                     [&](const auto& e) { return e.name == name; });
}

TEST(TelemetryDeterminism, MetricsBitIdenticalWithTelemetryOnOrOff) {
  const auto off = run_experiment(small(false));
  const auto on = run_experiment(small(true));

  EXPECT_EQ(off.recorded_packets, on.recorded_packets);
  EXPECT_EQ(off.capture_sizes, on.capture_sizes);
  ASSERT_EQ(off.comparisons.size(), on.comparisons.size());
  for (std::size_t i = 0; i < off.comparisons.size(); ++i) {
    const auto& a = off.comparisons[i];
    const auto& b = on.comparisons[i];
    // Bitwise equality, not near-equality: telemetry must not perturb a
    // single packet timestamp anywhere in the pipeline.
    EXPECT_EQ(a.metrics.kappa, b.metrics.kappa);
    EXPECT_EQ(a.metrics.uniqueness, b.metrics.uniqueness);
    EXPECT_EQ(a.metrics.ordering, b.metrics.ordering);
    EXPECT_EQ(a.metrics.iat, b.metrics.iat);
    EXPECT_EQ(a.metrics.latency, b.metrics.latency);
    EXPECT_EQ(a.common, b.common);
    EXPECT_EQ(a.moved, b.moved);
    ASSERT_EQ(a.series.iat_delta_ns.size(), b.series.iat_delta_ns.size());
    EXPECT_EQ(a.series.iat_delta_ns, b.series.iat_delta_ns);
    EXPECT_EQ(a.series.latency_delta_ns, b.series.latency_delta_ns);
  }
  EXPECT_EQ(off.mean.kappa, on.mean.kappa);

  // Disabled runs carry no telemetry state.
  EXPECT_EQ(off.telemetry_registry, nullptr);
  EXPECT_EQ(off.telemetry_trace, nullptr);
  EXPECT_TRUE(off.telemetry_samples.empty());
}

TEST(TelemetryDeterminism, EnabledRunCoversThePipeline) {
  const auto result = run_experiment(small(true));
  ASSERT_NE(result.telemetry_registry, nullptr);
  ASSERT_NE(result.telemetry_trace, nullptr);
  const auto& registry = *result.telemetry_registry;
  const auto& counters = registry.counters();
  const auto& gauges = registry.gauges();
  const auto& histograms = registry.histograms();

  // Per-port burst counters from pktio::EthDev.
  ASSERT_TRUE(counters.count("port.choir-in.10.rx_packets"));
  EXPECT_GE(counters.at("port.choir-in.10.rx_packets").value(), 4000u);
  ASSERT_TRUE(counters.count("port.choir-out.10.tx_bursts"));
  EXPECT_GT(counters.at("port.choir-out.10.tx_bursts").value(), 0u);
  ASSERT_TRUE(counters.count("port.recorder.rx_packets"));
  // Recorder sees the forwarded stream plus every replay.
  EXPECT_GE(counters.at("port.recorder.rx_packets").value(), 3u * 4000u);

  // Ring occupancy high-water marks (VF RX rings, TX backlogs).
  ASSERT_TRUE(gauges.count("nic.recorder.vf0.rx_ring_hwm"));
  EXPECT_GT(gauges.at("nic.recorder.vf0.rx_ring_hwm").value(), 0);
  EXPECT_TRUE(gauges.count("txport.repl0-out.backlog_hwm"));

  // Latency histograms: middlebox forward latency and pacing error.
  ASSERT_TRUE(histograms.count("middlebox.10.forward_latency_ns"));
  EXPECT_EQ(histograms.at("middlebox.10.forward_latency_ns").count(), 4000u);
  ASSERT_TRUE(histograms.count("middlebox.10.pacing_error_ns"));
  EXPECT_GT(histograms.at("middlebox.10.pacing_error_ns").count(), 0u);
  EXPECT_TRUE(histograms.count("nic.repl0-out.dma_pull_delay_ns"));

  // Trace spans for the record window and every replayed run.
  const auto& tracer = *result.telemetry_trace;
  EXPECT_TRUE(has_trace_event(tracer, "record"));
  EXPECT_TRUE(has_trace_event(tracer, "replay"));
  EXPECT_TRUE(has_trace_event(tracer, "replay-burst"));
  EXPECT_TRUE(has_trace_event(tracer, "capture-window"));
  EXPECT_TRUE(has_trace_event(tracer, "record-phase"));
  EXPECT_TRUE(has_trace_event(tracer, "run-2"));
  EXPECT_EQ(tracer.dropped(), 0u);

  // Sampled time series: one snapshot per period plus the final one,
  // monotone in sim time.
  ASSERT_GT(result.telemetry_samples.size(), 2u);
  for (std::size_t i = 1; i < result.telemetry_samples.size(); ++i) {
    EXPECT_GE(result.telemetry_samples[i].at,
              result.telemetry_samples[i - 1].at);
  }
}

TEST(TelemetryDeterminism, CountersEqualTheComponentsOwnCounts) {
  // A faulted four-node group run: every exposed counter, read from the
  // registry after the topology is gone, equals the count the result
  // copied from the component itself.
  ExperimentConfig cfg;
  cfg.env = chaos_single(0.5);
  cfg.env.replayers = 4;
  cfg.group.enabled = true;
  cfg.packets = 4000;
  cfg.runs = 3;
  cfg.seed = 11;
  cfg.telemetry.enabled = true;
  const auto result = run_experiment(cfg);
  ASSERT_NE(result.telemetry_registry, nullptr);
  const auto& counters = result.telemetry_registry->counters();
  const auto count = [&](const std::string& name) -> std::uint64_t {
    const auto it = counters.find(name);
    EXPECT_NE(it, counters.end()) << name;
    return it == counters.end() ? ~std::uint64_t{0} : it->second.value();
  };

  ASSERT_EQ(result.middlebox_stats.size(), 4u);
  ASSERT_EQ(result.group_members.size(), 4u);
  for (std::size_t i = 0; i < result.middlebox_stats.size(); ++i) {
    const app::MiddleboxStats& m = result.middlebox_stats[i];
    const std::string base =
        "middlebox." + std::to_string(result.group_members[i].id) + ".";
    EXPECT_EQ(count(base + "forwarded"), m.forwarded);
    EXPECT_EQ(count(base + "recorded"), m.recorded);
    EXPECT_EQ(count(base + "control_frames"), m.control_frames);
    EXPECT_EQ(count(base + "forward_drops"), m.forward_drops);
    EXPECT_EQ(count(base + "record_overflow"), m.record_overflow);
    EXPECT_EQ(count(base + "tx_ring_retries"), m.tx_ring_retries);
    EXPECT_EQ(count(base + "replayed_packets"), m.replayed_packets);
    EXPECT_EQ(count(base + "replayed_bursts"), m.replayed_bursts);
    EXPECT_EQ(count(base + "control_duplicates"), m.control_duplicates);
    EXPECT_EQ(count(base + "replay_resyncs"), m.replay_resyncs);
    EXPECT_EQ(count(base + "recordings_truncated"), m.recordings_truncated);
    EXPECT_EQ(count(base + "group_beacons"), m.group_beacons_sent);
    EXPECT_EQ(count(base + "group_prepares"), m.group_prepares);
    EXPECT_EQ(count(base + "group_resyncs"), m.group_resyncs);
    EXPECT_EQ(count(base + "group_skipped_packets"), m.group_skipped_packets);
    EXPECT_EQ(count(base + "replays_aborted"), m.replays_aborted);
    EXPECT_GT(m.replayed_packets, 0u);
  }

  const fault::FaultStats& f = result.fault_stats;
  EXPECT_EQ(count("fault.link_down_drops"), f.link_down_drops);
  EXPECT_EQ(count("fault.frames_dropped"), f.frames_dropped);
  EXPECT_EQ(count("fault.frames_corrupted"), f.frames_corrupted);
  EXPECT_EQ(count("fault.frames_duplicated"), f.frames_duplicated);
  EXPECT_EQ(count("fault.frames_reordered"), f.frames_reordered);
  EXPECT_EQ(count("fault.rx_stalled_polls"), f.rx_stalled_polls);
  EXPECT_EQ(count("fault.tx_stalled_bursts"), f.tx_stalled_bursts);
  EXPECT_EQ(count("fault.bursts_truncated"), f.bursts_truncated);
  EXPECT_EQ(count("fault.allocs_denied"), f.allocs_denied);
  EXPECT_EQ(count("fault.clock_degrades"), f.clock_degrades);
  EXPECT_GT(f.total(), 0u);

  const app::GroupStats& g = result.group_stats;
  EXPECT_EQ(count("group.beacons_rx"), g.beacons_rx);
  EXPECT_EQ(count("group.stragglers"), g.stragglers_detected);
  EXPECT_EQ(count("group.resyncs"), g.resyncs_sent);
  EXPECT_EQ(count("group.evictions"), g.evictions);
  EXPECT_EQ(count("group.ready_timeouts"), g.ready_timeouts);
  EXPECT_EQ(count("group.rounds"), g.rounds_started);
  EXPECT_EQ(g.rounds_started, 3u);

  EXPECT_EQ(count("controller.retries"), result.control_retries);
  EXPECT_EQ(count("controller.send_failures"), result.control_send_failures);
  EXPECT_EQ(count("controller.timeouts"), result.control_timeouts);
  EXPECT_GT(result.control_retries, 0u);
}

TEST(TelemetryDeterminism, WritesArtifactsWhenDirSet) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "choir-telemetry").string();
  std::filesystem::remove_all(dir);
  run_experiment(small(true, dir));
  for (const char* name : {"counters.jsonl", "histograms.csv", "trace.json"}) {
    const auto path = std::filesystem::path(dir) / name;
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
  }
  std::ifstream trace(std::filesystem::path(dir) / "trace.json");
  std::string head;
  std::getline(trace, head);
  EXPECT_EQ(head.rfind("{\"displayTimeUnit\":\"ns\"", 0), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace choir::testbed
