// Experiment-runner behaviour at small scale: completeness, determinism,
// and the structural invariants every environment must satisfy.
#include "testbed/experiment.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "fault/fault_plan.hpp"

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
  const auto trial = rebased_trial(result.captures[0]);
  EXPECT_EQ(trial.first_time(), 0);
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
