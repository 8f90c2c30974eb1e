// Experiment-runner behaviour at small scale: completeness, determinism,
// and the structural invariants every environment must satisfy.
#include "testbed/experiment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/registry.hpp"
#include "trace/flow_classify.hpp"
#include "trace/trace_file.hpp"

namespace choir::testbed {
namespace {

ExperimentConfig small(EnvironmentPreset env, std::uint64_t packets = 4000,
                       std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.env = std::move(env);
  cfg.packets = packets;
  cfg.runs = 3;
  cfg.seed = seed;
  return cfg;
}

TEST(Experiment, RecordsAndReplaysAllPackets) {
  const auto result = run_experiment(small(local_single()));
  EXPECT_EQ(result.recorded_packets, 4000u);
  ASSERT_EQ(result.capture_sizes.size(), 3u);
  for (const auto size : result.capture_sizes) {
    EXPECT_EQ(size, 4000u);
  }
  ASSERT_EQ(result.comparisons.size(), 2u);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(small(local_single(), 2000, 42));
  const auto b = run_experiment(small(local_single(), 2000, 42));
  ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
  for (std::size_t i = 0; i < a.comparisons.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.comparisons[i].metrics.kappa,
                     b.comparisons[i].metrics.kappa);
    EXPECT_DOUBLE_EQ(a.comparisons[i].metrics.iat,
                     b.comparisons[i].metrics.iat);
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  const auto a = run_experiment(small(local_single(), 2000, 1));
  const auto b = run_experiment(small(local_single(), 2000, 2));
  EXPECT_NE(a.comparisons[0].metrics.iat, b.comparisons[0].metrics.iat);
}

TEST(Experiment, LocalSingleIsHighlyConsistent) {
  const auto result = run_experiment(small(local_single(), 8000));
  for (const auto& c : result.comparisons) {
    EXPECT_EQ(c.metrics.uniqueness, 0.0);
    EXPECT_EQ(c.metrics.ordering, 0.0);
    EXPECT_GT(c.metrics.kappa, 0.95);
  }
}

TEST(Experiment, DualTopologySplitsStreams) {
  const auto result = run_experiment(small(local_dual(), 4000));
  EXPECT_EQ(result.middlebox_stats.size(), 2u);
  EXPECT_EQ(result.middlebox_stats[0].recorded, 2000u);
  EXPECT_EQ(result.middlebox_stats[1].recorded, 2000u);
  for (const auto size : result.capture_sizes) {
    EXPECT_EQ(size, 4000u);  // merged at the recorder
  }
}

TEST(Experiment, MetricsAlwaysNormalized) {
  for (const auto& env : {local_single(), fabric_shared_40()}) {
    const auto result = run_experiment(small(env, 3000));
    for (const auto& c : result.comparisons) {
      for (const double v : {c.metrics.uniqueness, c.metrics.ordering,
                             c.metrics.latency, c.metrics.iat}) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
      EXPECT_GE(c.metrics.kappa, 0.0);
      EXPECT_LE(c.metrics.kappa, 1.0);
    }
  }
}

TEST(Experiment, SeriesCollectedWhenRequested) {
  ExperimentConfig cfg = small(local_single(), 2000);
  cfg.collect_series = true;
  const auto result = run_experiment(cfg);
  for (const auto& c : result.comparisons) {
    EXPECT_EQ(c.series.iat_delta_ns.size(), c.common);
    EXPECT_EQ(c.series.latency_delta_ns.size(), c.common);
  }
}

TEST(Experiment, CapturesKeptOnRequest) {
  ExperimentConfig cfg = small(local_single(), 1000);
  cfg.keep_captures = true;
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.captures.size(), 3u);
  EXPECT_EQ(result.captures[0].size(), 1000u);
  // Default drops them to save memory.
  const auto lean = run_experiment(small(local_single(), 1000));
  EXPECT_TRUE(lean.captures.empty());
}

TEST(Experiment, MeanAveragesComparisons) {
  const auto result = run_experiment(small(local_single(), 3000));
  double kappa_sum = 0;
  for (const auto& c : result.comparisons) kappa_sum += c.metrics.kappa;
  EXPECT_NEAR(result.mean.kappa,
              kappa_sum / static_cast<double>(result.comparisons.size()),
              1e-12);
}

TEST(Experiment, RebasedTrialStartsAtZero) {
  ExperimentConfig cfg = small(local_single(), 500);
  cfg.keep_captures = true;
  const auto result = run_experiment(cfg);
  const trace::Capture& capture = result.captures[1];
  const auto trial = rebased_trial(capture);
  EXPECT_EQ(trial.first_time(), 0);
  // One pass gives the trial the build-then-shift path gave, from the
  // capture and from its trace file.
  core::Trial shifted = capture.to_trial();
  shifted.rebase_to_zero();
  const std::string path = ::testing::TempDir() + "rebased_trial.trc";
  trace::write_trace(capture, path);
  const auto mapped = rebased_trial(trace::MappedCapture(path));
  std::filesystem::remove(path);
  ASSERT_EQ(trial.size(), shifted.size());
  ASSERT_EQ(mapped.size(), shifted.size());
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    EXPECT_EQ(trial[i].id, shifted[i].id);
    EXPECT_EQ(trial[i].time, shifted[i].time);
    EXPECT_EQ(mapped[i].id, shifted[i].id);
    EXPECT_EQ(mapped[i].time, shifted[i].time);
  }
  EXPECT_TRUE(rebased_trial(trace::Capture()).empty());
}

TEST(Experiment, RecorderFlowCountsAgreeWithTheClassifier) {
  // The recorder classifies in its drain; the evaluation classifies each
  // closed capture. Both read the same frames, so the in-path counts must
  // add up to what classify_capture finds in the kept captures.
  ExperimentConfig cfg = small(local_dual(), 3000);
  cfg.keep_captures = true;
  cfg.telemetry.enabled = true;
  cfg.flow.enabled = true;
  cfg.flow.flows = 64;
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.captures.size(), 3u);
  ASSERT_NE(result.telemetry_registry, nullptr);

  std::uint64_t unclassified = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  flow::FlowTable flows;  // every run's flows, as the recorder's table
  for (const trace::Capture& capture : result.captures) {
    const trace::FlowClassification c = trace::classify_capture(capture);
    unclassified += c.unclassified;
    for (std::size_t i = 0; i < capture.size(); ++i) {
      if (c.per_packet[i] == flow::kNoFlow) continue;
      ++packets;
      bytes += capture[i].wire_len;
      flows.classify(c.table.key_of(c.per_packet[i]));
    }
  }
  EXPECT_EQ(result.flow_unclassified, unclassified);

  std::uint64_t counted[3] = {};  // packets, bytes, flows
  const char* const kSuffixes[3] = {".packets", ".bytes", ".flows"};
  for (const auto& [name, counter] :
       result.telemetry_registry->counters()) {
    if (name.rfind("flow.", 0) != 0) continue;
    for (int k = 0; k < 3; ++k) {
      const std::string suffix = kSuffixes[k];
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        counted[k] += counter.value();
      }
    }
  }
  EXPECT_GT(packets, 0u);
  EXPECT_EQ(counted[0], packets);
  EXPECT_EQ(counted[1], bytes);
  EXPECT_EQ(counted[2], flows.size());
}

TEST(Experiment, RejectsSillyConfigs) {
  ExperimentConfig cfg = small(local_single());
  cfg.runs = 1;
  EXPECT_THROW(run_experiment(cfg), Error);
  EnvironmentPreset env = local_single();
  env.replayers = 3;
  EXPECT_THROW(run_experiment(small(env)), Error);
}

TEST(Experiment, RejectsZeroPacketTrials) {
  // Two empty trials compare as perfectly consistent (kappa = 1), which
  // would report a run that replayed nothing as a flawless one.
  ExperimentConfig cfg = small(local_single());
  cfg.packets = 0;
  EXPECT_THROW(run_experiment(cfg), Error);
  cfg.packets = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(Experiment, ControlPlaneDrivesEverything) {
  const auto result = run_experiment(small(local_single(), 1000));
  ASSERT_EQ(result.middlebox_stats.size(), 1u);
  // start-record, stop-record, and 3 replay commands.
  EXPECT_EQ(result.middlebox_stats[0].control_frames, 5u);
  EXPECT_EQ(result.middlebox_stats[0].replays_started, 3u);
}

// Section 5: the forwarding loop drains at most rx_burst_size frames per
// poll interval, so it carries at most cap = burst × frame bits /
// interval. Below the cap a recording is lossless. Above it the backlog
// grows at rate − cap until the replayer's RX ring overflows, after
// ring × rate / (rate − cap) offered packets.
struct LineRateRun {
  std::uint64_t recorded = 0;
  std::size_t replayed = 0;
};

LineRateRun line_rate_run(std::uint16_t burst, double rate_gbps,
                          std::uint64_t packets) {
  ExperimentConfig cfg = small(local_single(), packets, 11);
  cfg.runs = 2;
  cfg.collect_series = false;
  cfg.env.rate = gbps(rate_gbps);
  cfg.env.choir.rx_burst_size = burst;
  const auto result = run_experiment(cfg);
  return {result.recorded_packets, result.capture_sizes[1]};
}

/// Bits per nanosecond, i.e. Gbps.
double cap_gbps(const EnvironmentPreset& env, std::uint16_t burst) {
  return static_cast<double>(burst) * env.frame_bytes * 8.0 /
         static_cast<double>(env.choir.poll.interval);
}

/// Offered packets after which the backlog above the cap fills the ring.
double overflow_after(const EnvironmentPreset& env, std::uint16_t burst,
                      double rate_gbps) {
  return static_cast<double>(env.replayer_nic.rx_ring_pkts) * rate_gbps /
         (rate_gbps - cap_gbps(env, burst));
}

TEST(LineRate, BurstCapBoundsLosslessForwarding) {
  const EnvironmentPreset env = local_single();
  const std::uint64_t packets = 40'000;
  struct Bracket {
    std::uint16_t burst;
    double below_gbps;
    double above_gbps;
  };
  for (const Bracket b : {Bracket{2, 20.0, 40.0}, Bracket{4, 40.0, 80.0}}) {
    SCOPED_TRACE(b.burst);
    const double cap = cap_gbps(env, b.burst);
    ASSERT_LT(b.below_gbps, cap);
    ASSERT_GT(b.above_gbps, cap);
    ASSERT_GT(static_cast<double>(packets),
              overflow_after(env, b.burst, b.above_gbps));
    const LineRateRun below = line_rate_run(b.burst, b.below_gbps, packets);
    EXPECT_EQ(below.recorded, packets);
    EXPECT_EQ(below.replayed, packets);
    EXPECT_LT(line_rate_run(b.burst, b.above_gbps, packets).recorded,
              packets);
  }

  // The paper's design point: 64-packet bursts carry 100 Gbps of
  // 1400-byte frames (8.9 Mpps) through record and replay.
  ASSERT_GT(cap_gbps(env, 64), 99.7);
  const LineRateRun peak = line_rate_run(64, 99.7, packets);
  EXPECT_EQ(peak.recorded, packets);
  EXPECT_EQ(peak.replayed, packets);

  // Above the cap but before the backlog fills the ring, nothing is lost:
  // a trial this short measures the ring's depth, not the loop's cap.
  const std::uint64_t short_trial = 16'000;
  ASSERT_LT(static_cast<double>(short_trial), overflow_after(env, 2, 40.0));
  const LineRateRun absorbed = line_rate_run(2, 40.0, short_trial);
  EXPECT_EQ(absorbed.recorded, short_trial);
  EXPECT_EQ(absorbed.replayed, short_trial);
}

// Fault targets are checked against the built topology's fault-point
// list: every point docs/FAULTS.md documents for a mode is accepted, and
// a target naming no wired point throws (instead of silently never
// firing).
struct FaultPointCase {
  const char* mode;
  bool group;
  std::vector<std::string> accepted;
  std::vector<std::string> rejected;
};

void PrintTo(const FaultPointCase& c, std::ostream* os) { *os << c.mode; }

class FaultPointTable : public ::testing::TestWithParam<FaultPointCase> {};

/// A one-event plan aimed at `target`, on the target's own layer, with a
/// window long after the run ends.
ExperimentResult run_with_target(bool group, const std::string& target) {
  ExperimentConfig cfg = small(local_dual(), 200);
  cfg.runs = 2;
  cfg.collect_series = false;
  cfg.group.enabled = group;
  const std::string layer = target.substr(0, target.find('.'));
  fault::FaultEvent event;
  event.kind = layer == "link"   ? fault::FaultKind::kLinkDown
               : layer == "nic"  ? fault::FaultKind::kNicRxStall
               : layer == "pool" ? fault::FaultKind::kMemPressure
                                 : fault::FaultKind::kClockDegrade;
  event.target = target;
  event.start = seconds(100);
  event.duration = 1;
  cfg.env.faults.add(event);
  return run_experiment(cfg);
}

TEST_P(FaultPointTable, AcceptsDocumentedPointsAndRejectsUnknownTargets) {
  const FaultPointCase& c = GetParam();
  // local_dual has replayers 0 and 1: "<i>" expands to both.
  std::vector<std::string> accepted;
  for (const std::string& point : c.accepted) {
    const std::size_t at = point.find("<i>");
    if (at == std::string::npos) {
      accepted.push_back(point);
      continue;
    }
    for (const char* i : {"0", "1"}) {
      accepted.push_back(std::string(point).replace(at, 3, i));
    }
  }
  for (const std::string& target : accepted) {
    EXPECT_NO_THROW(run_with_target(c.group, target)) << target;
  }
  for (const std::string& target : c.rejected) {
    try {
      run_with_target(c.group, target);
      ADD_FAILURE() << target << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + target + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// The accepted lists mirror docs/FAULTS.md's injection-point table.
INSTANTIATE_TEST_SUITE_P(
    Modes, FaultPointTable,
    ::testing::Values(
        FaultPointCase{"legacy",
                       false,
                       {"link.gen<i>", "link.repl<i>-out", "link.to-recorder",
                        "nic.repl<i>-in", "nic.repl<i>-out", "pool.gen<i>",
                        "pool.ctl<i>", "*"},
                       {"nic.repl7-out", "link.to-repl0", "clock.repl0",
                        "link.ctl", "link.to-ctl", "pool.ctl"}},
        FaultPointCase{"group",
                       true,
                       {"link.gen<i>", "link.repl<i>-out", "link.to-recorder",
                        "nic.repl<i>-in", "nic.repl<i>-out", "pool.gen<i>",
                        "link.to-repl<i>", "clock.repl<i>", "link.ctl",
                        "link.to-ctl", "pool.ctl", "*"},
                       {"nic.repl7-out", "pool.ctl0", "pool.gen2"}}),
    [](const ::testing::TestParamInfo<FaultPointCase>& info) {
      return std::string(info.param.mode);
    });

}  // namespace
}  // namespace choir::testbed
