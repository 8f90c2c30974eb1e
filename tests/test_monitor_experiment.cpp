// Integration tests for the monitor's experiment wiring: the recorder
// feeds the monitor through the null-check hook, stream finales agree
// with the offline comparisons, enabling the monitor does not perturb
// the simulation, and two identical monitored runs produce byte-
// identical divergence.jsonl artifacts (the determinism regression).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "monitor/monitor.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir::testbed {
namespace {

namespace fs = std::filesystem;

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.env = local_single();
  config.packets = 600;
  config.runs = 3;
  config.seed = 424242;
  config.collect_series = false;
  return config;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MonitorExperiment, RecorderFeedsMonitorAndFinalesMatchOffline) {
  ExperimentConfig config = small_config();
  config.monitor.enabled = true;
  config.monitor.window_packets = 128;
  const ExperimentResult result = run_experiment(config);

  ASSERT_NE(result.monitor, nullptr);
  const auto& mon = *result.monitor;
  // Run 0 became the reference; runs 1..n-1 are monitored streams.
  ASSERT_EQ(mon.streams().size(), static_cast<std::size_t>(config.runs - 1));
  ASSERT_EQ(result.comparisons.size(),
            static_cast<std::size_t>(config.runs - 1));
  EXPECT_GT(mon.observed(), 0u);
  EXPECT_FALSE(mon.windows().empty());

  // The exact finale of each stream is the offline Eq. 5 on the same
  // packets the capture path recorded.
  for (std::size_t i = 0; i < mon.streams().size(); ++i) {
    const auto& stream = mon.streams()[i];
    const auto& offline = result.comparisons[i];
    EXPECT_NEAR(stream.metrics.kappa, offline.metrics.kappa, 1e-9) << i;
    EXPECT_NEAR(stream.metrics.uniqueness, offline.metrics.uniqueness, 1e-9);
    EXPECT_NEAR(stream.metrics.ordering, offline.metrics.ordering, 1e-9);
    EXPECT_NEAR(stream.metrics.latency, offline.metrics.latency, 1e-9);
    EXPECT_NEAR(stream.metrics.iat, offline.metrics.iat, 1e-9);
    EXPECT_EQ(stream.common, offline.common);
  }
}

TEST(MonitorExperiment, MonitorDoesNotPerturbTheSimulation) {
  // A pure observer: the seeded run must be bit-identical with the
  // monitor on or off.
  ExperimentConfig off = small_config();
  ExperimentConfig on = off;
  on.monitor.enabled = true;
  on.monitor.window_packets = 64;
  const ExperimentResult r_off = run_experiment(off);
  const ExperimentResult r_on = run_experiment(on);
  EXPECT_EQ(std::memcmp(&r_off.mean, &r_on.mean, sizeof(r_off.mean)), 0);
  EXPECT_EQ(r_off.recorded_packets, r_on.recorded_packets);
  EXPECT_EQ(r_off.capture_sizes, r_on.capture_sizes);
}

TEST(MonitorExperiment, DivergenceArtifactsAreByteDeterministic) {
  // Two identical monitored runs write byte-identical divergence.jsonl
  // and windows.csv — the ISSUE's determinism regression.
  const fs::path base =
      fs::temp_directory_path() / "choir_monitor_determinism";
  fs::remove_all(base);
  ExperimentConfig config = small_config();
  config.env = chaos_single(0.3);  // adversity so divergence is non-empty
  config.monitor.enabled = true;
  config.monitor.window_packets = 64;

  std::string jsonl[2];
  std::string csv[2];
  for (int round = 0; round < 2; ++round) {
    const fs::path dir = base / ("run" + std::to_string(round));
    config.monitor.dir = dir.string();
    (void)run_experiment(config);
    ASSERT_TRUE(fs::exists(dir / "divergence.jsonl")) << dir;
    ASSERT_TRUE(fs::exists(dir / "windows.csv")) << dir;
    jsonl[round] = slurp(dir / "divergence.jsonl");
    csv[round] = slurp(dir / "windows.csv");
  }
  EXPECT_FALSE(csv[0].empty());
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(csv[0], csv[1]);
  fs::remove_all(base);
}

TEST(MonitorExperiment, LiveTelemetryCountersAndWindowSpans) {
  // The monitor runs inline on the simulation thread, so its counters
  // and every monitor.window span land in that thread's sessions.
  ExperimentConfig config = small_config();
  config.monitor.enabled = true;
  config.monitor.window_packets = 128;
  config.telemetry.enabled = true;
  config.telemetry.profile = true;
  const ExperimentResult result = run_experiment(config);
  ASSERT_NE(result.telemetry_registry, nullptr);
  ASSERT_NE(result.monitor, nullptr);
  ASSERT_NE(result.profile, nullptr);
  auto& registry = *result.telemetry_registry;
  EXPECT_EQ(registry.counter("monitor.observed").value(),
            result.monitor->observed());
  EXPECT_EQ(registry.counter("monitor.windows").value(),
            result.monitor->windows().size());
  EXPECT_EQ(registry.counter("monitor.streams").value(),
            result.monitor->streams().size());
  const auto& aggregates = result.profile->aggregates();
  ASSERT_FALSE(result.monitor->windows().empty());
  ASSERT_TRUE(aggregates.count("monitor.window"));
  EXPECT_EQ(aggregates.at("monitor.window").count,
            result.monitor->windows().size());
}

TEST(MonitorExperiment, ProfilerCapturesPipelinePhases) {
  ExperimentConfig config = small_config();
  config.telemetry.enabled = true;
  config.telemetry.profile = true;
  config.monitor.enabled = true;
  const ExperimentResult result = run_experiment(config);
  ASSERT_NE(result.profile, nullptr);
  const auto& aggregates = result.profile->aggregates();
  // The three top-level phases always close exactly once per experiment.
  ASSERT_TRUE(aggregates.count("experiment.build"));
  ASSERT_TRUE(aggregates.count("experiment.run"));
  ASSERT_TRUE(aggregates.count("experiment.evaluate"));
  EXPECT_EQ(aggregates.at("experiment.build").count, 1u);
  EXPECT_EQ(aggregates.at("experiment.run").count, 1u);
  EXPECT_EQ(aggregates.at("experiment.evaluate").count, 1u);
  EXPECT_FALSE(aggregates.count("experiment.flow_eval"));
  // Hot-path spans fire per drain/pace step while the run phase is open.
  ASSERT_TRUE(aggregates.count("record.drain"));
  EXPECT_GT(aggregates.at("record.drain").count, 0u);

  // With flows on, per-flow evaluation is one span nested inside the
  // evaluate phase (perfbench reads both boundaries).
  ExperimentConfig flows = config;
  flows.flow.enabled = true;
  flows.flow.flows = 16;
  const ExperimentResult flow_result = run_experiment(flows);
  ASSERT_NE(flow_result.profile, nullptr);
  const auto& flow_aggregates = flow_result.profile->aggregates();
  ASSERT_TRUE(flow_aggregates.count("experiment.flow_eval"));
  EXPECT_EQ(flow_aggregates.at("experiment.flow_eval").count, 1u);
  EXPECT_EQ(flow_aggregates.at("experiment.evaluate").count, 1u);
  const telemetry::TraceEvent* evaluate = nullptr;
  const telemetry::TraceEvent* flow_eval = nullptr;
  for (const auto& e : flow_result.telemetry_trace->events()) {
    if (e.name == "experiment.evaluate") evaluate = &e;
    if (e.name == "experiment.flow_eval") flow_eval = &e;
  }
  ASSERT_NE(evaluate, nullptr);
  ASSERT_NE(flow_eval, nullptr);
  EXPECT_EQ(evaluate->args_json, "{\"depth\":0}");
  EXPECT_EQ(flow_eval->args_json, "{\"depth\":1}");
  EXPECT_GE(flow_eval->ts, evaluate->ts);
  EXPECT_LE(flow_eval->ts + flow_eval->dur, evaluate->ts + evaluate->dur);
  // Without a profile session, no profiler is attached.
  ExperimentConfig plain = small_config();
  plain.telemetry.enabled = true;
  EXPECT_EQ(run_experiment(plain).profile, nullptr);
}

}  // namespace
}  // namespace choir::testbed
