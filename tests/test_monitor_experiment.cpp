// Integration tests for the monitor's experiment wiring: the recorder
// feeds the monitor through the null-check hook, its windows tile the
// captured runs and match an independent transcription of Eqs. 1-5,
// enabling the monitor does not perturb the simulation, and two
// identical monitored runs produce byte-identical divergence.jsonl
// artifacts (the determinism regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "monitor/divergence.hpp"
#include "monitor/stream_monitor.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "trace/capture.hpp"

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

/// One captured packet as Section 3 sees it: its identity made unique by
/// occurrence (raw hi, raw lo, occurrence) and its receiver timestamp.
struct Packet {
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> id;
  double time = 0.0;
};

/// Every record of `capture` in arrival order, occurrence-tagged over the
/// whole run as the monitor and the evaluation both do.
std::vector<Packet> tagged_packets(const trace::Capture& capture) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> seen;
  std::vector<Packet> out;
  for (const trace::CaptureRecord& r : capture.records()) {
    const core::PacketId raw = r.packet_id();
    const std::uint64_t occurrence = seen[{raw.hi, raw.lo}]++;
    out.push_back(Packet{{raw.hi, raw.lo, occurrence},
                         static_cast<double>(r.timestamp)});
  }
  return out;
}

/// packets[begin, end), rebased to the slice's first packet.
std::vector<Packet> slice(const std::vector<Packet>& packets,
                          std::size_t begin, std::size_t end) {
  std::vector<Packet> out(packets.begin() + static_cast<std::ptrdiff_t>(begin),
                          packets.begin() + static_cast<std::ptrdiff_t>(end));
  if (out.empty()) return out;
  const double t0 = out.front().time;
  for (Packet& p : out) p.time -= t0;
  return out;
}

struct Uli {
  double u = 0.0;
  double l = 0.0;
  double i = 0.0;
};

/// Eqs. 1, 3 and 4 transcribed from the paper over trials A and B, each
/// starting at time 0: U = 1 - 2|A∩B| / (|A| + |B|); L sums
/// |l_A - l_B| over the common packets, over |A∩B| times the straddle
/// max(last_B, last_A); I sums |g_A - g_B|, where g is the gap to the
/// previous packet of the same trial (0 for the first), over the sum of
/// the two durations. Each empty denominator reads 0.
Uli section3_uli(const std::vector<Packet>& a, const std::vector<Packet>& b) {
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           std::size_t>
      position_in_a;
  for (std::size_t j = 0; j < a.size(); ++j) position_in_a[a[j].id] = j;
  double common = 0.0;
  double sum_latency = 0.0;
  double sum_iat = 0.0;
  for (std::size_t k = 0; k < b.size(); ++k) {
    const auto it = position_in_a.find(b[k].id);
    if (it == position_in_a.end()) continue;
    const std::size_t j = it->second;
    common += 1.0;
    sum_latency += std::abs(a[j].time - b[k].time);
    const double g_a = j == 0 ? 0.0 : a[j].time - a[j - 1].time;
    const double g_b = k == 0 ? 0.0 : b[k].time - b[k - 1].time;
    sum_iat += std::abs(g_a - g_b);
  }
  const double last_a = a.empty() ? 0.0 : a.back().time;
  const double last_b = b.empty() ? 0.0 : b.back().time;
  Uli out;
  const double total = static_cast<double>(a.size() + b.size());
  out.u = total > 0.0 ? 1.0 - 2.0 * common / total : 0.0;
  const double l_denominator = common * std::max(last_a, last_b);
  out.l = l_denominator > 0.0 ? sum_latency / l_denominator : 0.0;
  const double i_denominator = last_a + last_b;
  out.i = i_denominator > 0.0 ? sum_iat / i_denominator : 0.0;
  return out;
}

TEST(MonitorExperiment, WindowsTileCapturesAndMatchSection3) {
  // An independent check of the recorder -> monitor feed: every window
  // is recomputed from the saved captures by a test-local transcription
  // of Eqs. 1, 3-5 that calls nothing in core/.
  for (const EnvironmentPreset& env : {local_single(), chaos_single(0.3)}) {
    ExperimentConfig config = small_config();
    config.env = env;
    config.keep_captures = true;
    config.monitor.enabled = true;
    config.monitor.window_packets = 128;
    const ExperimentResult result = run_experiment(config);

    ASSERT_NE(result.monitor, nullptr);
    const auto& mon = *result.monitor;
    // Run 0 became the reference; runs 1..n-1 are monitored streams.
    ASSERT_EQ(mon.streams().size(), static_cast<std::size_t>(config.runs - 1));
    ASSERT_EQ(result.captures.size(), static_cast<std::size_t>(config.runs));
    const std::vector<Packet> reference = tagged_packets(result.captures[0]);

    std::size_t window_count = 0;
    bool any_divergence = false;
    for (std::size_t i = 0; i < mon.streams().size(); ++i) {
      SCOPED_TRACE(env.name + " stream " + std::to_string(i));
      const std::vector<Packet> run = tagged_packets(result.captures[i + 1]);
      ASSERT_EQ(run.size(), result.capture_sizes[i + 1]);
      std::size_t b_next = 0;
      std::size_t windows = 0;
      for (const monitor::WindowRecord& w : mon.windows()) {
        if (w.stream != i) continue;
        // The windows tile the captured run in arrival order, each paired
        // with the same index range of the reference, clamped to it.
        ASSERT_EQ(w.b_begin, b_next);
        ASSERT_GT(w.b_end, w.b_begin);
        ASSERT_LE(w.b_end, run.size());
        EXPECT_EQ(w.a_begin, std::min(w.b_begin, reference.size()));
        EXPECT_EQ(w.a_end, std::min(w.b_end, reference.size()));
        b_next = w.b_end;
        ++windows;

        const Uli want = section3_uli(slice(reference, w.a_begin, w.a_end),
                                      slice(run, w.b_begin, w.b_end));
        EXPECT_NEAR(w.metrics.uniqueness, want.u, 1e-12) << w.index;
        EXPECT_NEAR(w.metrics.latency, want.l, 1e-12) << w.index;
        EXPECT_NEAR(w.metrics.iat, want.i, 1e-12) << w.index;
        // Eq. 5 over those values and the window's own O.
        const double o = w.metrics.ordering;
        const double kappa =
            1.0 - std::sqrt(want.u * want.u + o * o + want.l * want.l +
                            want.i * want.i) /
                      2.0;
        EXPECT_NEAR(w.metrics.kappa, kappa, 1e-12) << w.index;
        any_divergence = any_divergence || want.u > 0.0;
      }
      EXPECT_EQ(b_next, result.capture_sizes[i + 1]);
      EXPECT_EQ(windows, mon.streams()[i].windows);
      EXPECT_EQ(mon.streams()[i].packets, result.capture_sizes[i + 1]);
      window_count += windows;
    }
    EXPECT_EQ(window_count, mon.windows().size());
    EXPECT_GT(window_count, mon.streams().size());  // several per stream
    // The chaos run loses and reorders packets, so U is exercised too.
    if (env.name != local_single().name) {
      EXPECT_TRUE(any_divergence);
    }
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
    config.artifact_dir = dir.string();
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
  // The monitor runs at each round close on the thread that runs the
  // experiment, so its counters and every monitor.window span land in
  // that thread's sessions.
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
  // Build closes once. Run and evaluate alternate as sibling top-level
  // phases: one queue segment and one round close per run, then the tail
  // segment and the final evaluation.
  const auto phases = static_cast<std::size_t>(config.runs) + 1;
  ASSERT_TRUE(aggregates.count("experiment.build"));
  ASSERT_TRUE(aggregates.count("experiment.run"));
  ASSERT_TRUE(aggregates.count("experiment.evaluate"));
  EXPECT_EQ(aggregates.at("experiment.build").count, 1u);
  EXPECT_EQ(aggregates.at("experiment.run").count, phases);
  EXPECT_EQ(aggregates.at("experiment.evaluate").count, phases);
  EXPECT_FALSE(aggregates.count("experiment.flow_eval"));
  // Hot-path spans fire per drain/pace step while the run phase is open.
  ASSERT_TRUE(aggregates.count("record.drain"));
  EXPECT_GT(aggregates.at("record.drain").count, 0u);

  // Every round close after run A's compares its run: one kappa.compare
  // each (the monitor's window compares add theirs).
  ASSERT_TRUE(aggregates.count("kappa.compare"));
  EXPECT_EQ(aggregates.at("kappa.compare").count,
            static_cast<std::size_t>(config.runs - 1) +
                result.monitor->windows().size());

  // With flows on, each round close classifies its run and compares it,
  // under one flow_eval span nested in its evaluate span; the final
  // evaluation has none (perfbench reads both boundaries).
  ExperimentConfig flows = config;
  flows.flow.enabled = true;
  flows.flow.flows = 16;
  const ExperimentResult flow_result = run_experiment(flows);
  ASSERT_NE(flow_result.profile, nullptr);
  const auto& flow_aggregates = flow_result.profile->aggregates();
  ASSERT_TRUE(flow_aggregates.count("experiment.flow_eval"));
  EXPECT_EQ(flow_aggregates.at("experiment.flow_eval").count,
            static_cast<std::size_t>(flows.runs));
  EXPECT_EQ(flow_aggregates.at("experiment.evaluate").count, phases);
  std::vector<const telemetry::TraceEvent*> evaluates;
  std::vector<const telemetry::TraceEvent*> flow_evals;
  for (const auto& e : flow_result.telemetry_trace->events()) {
    if (e.name == "experiment.run") {
      EXPECT_EQ(e.args_json, "{\"depth\":0}");
    }
    if (e.name == "experiment.evaluate") evaluates.push_back(&e);
    if (e.name == "experiment.flow_eval") flow_evals.push_back(&e);
  }
  ASSERT_EQ(flow_evals.size(), static_cast<std::size_t>(flows.runs));
  for (const telemetry::TraceEvent* flow_eval : flow_evals) {
    EXPECT_EQ(flow_eval->args_json, "{\"depth\":1}");
    const auto encloses = [&](const telemetry::TraceEvent* evaluate) {
      return evaluate->args_json == "{\"depth\":0}" &&
             flow_eval->ts >= evaluate->ts &&
             flow_eval->ts + flow_eval->dur <= evaluate->ts + evaluate->dur;
    };
    EXPECT_TRUE(std::any_of(evaluates.begin(), evaluates.end(), encloses));
  }
  // Without a profile session, no profiler is attached.
  ExperimentConfig plain = small_config();
  plain.telemetry.enabled = true;
  EXPECT_EQ(run_experiment(plain).profile, nullptr);
}

}  // namespace
}  // namespace choir::testbed
