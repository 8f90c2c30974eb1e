// Cross-module integration: the paper's qualitative findings must hold at
// reduced scale, end to end (generator -> middlebox -> switch -> recorder
// -> metrics), and the full artifact loop (capture -> trace file -> pcap)
// must round-trip.
#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

#include "analysis/stats.hpp"
#include "testbed/experiment.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

namespace choir::testbed {
namespace {

ExperimentConfig cfg_for(EnvironmentPreset env, std::uint64_t packets,
                         std::uint64_t seed = 11) {
  ExperimentConfig cfg;
  cfg.env = std::move(env);
  cfg.packets = packets;
  cfg.runs = 4;
  cfg.seed = seed;
  return cfg;
}

TEST(Integration, FabricLessConsistentThanLocal) {
  // The paper's headline: FABRIC environments add an order of magnitude
  // of IAT variance over the local bare-metal testbed.
  const auto local = run_experiment(cfg_for(local_single(), 15000));
  const auto fabric =
      run_experiment(cfg_for(fabric_dedicated_40_epoch1(), 15000));
  EXPECT_GT(fabric.mean.iat, 5.0 * local.mean.iat);
  EXPECT_LT(fabric.mean.kappa, local.mean.kappa);
}

TEST(Integration, DualReplayerReorders) {
  // Section 6.2: parallel replay adds ordering inconsistency; most moved
  // packets travel as whole bursts.
  const auto dual = run_experiment(cfg_for(local_dual(), 15000));
  double worst_o = 0;
  std::size_t moved = 0;
  for (const auto& c : dual.comparisons) {
    worst_o = std::max(worst_o, c.metrics.ordering);
    moved += c.moved;
  }
  EXPECT_GT(worst_o, 0.0);
  EXPECT_GT(moved, 0u);
}

TEST(Integration, NoisySharedNicDegradesKappa) {
  const auto quiet = run_experiment(cfg_for(fabric_shared_40(), 12000));
  const auto noisy =
      run_experiment(cfg_for(fabric_shared_40_noisy(), 12000));
  EXPECT_LT(noisy.mean.kappa, quiet.mean.kappa);
  EXPECT_GT(noisy.mean.iat, quiet.mean.iat);
}

TEST(Integration, SingleReplayerNeverReordersOrDrops) {
  // U and O are exactly 0 in every quiet single-replayer environment the
  // paper evaluates; the simulation must reproduce that, not merely
  // approximate it.
  for (const auto& env :
       {local_single(), fabric_dedicated_40_epoch1(), fabric_shared_40(),
        fabric_dedicated_80()}) {
    const auto result = run_experiment(cfg_for(env, 10000));
    for (const auto& c : result.comparisons) {
      EXPECT_EQ(c.metrics.uniqueness, 0.0) << env.name;
      EXPECT_EQ(c.metrics.ordering, 0.0) << env.name;
    }
  }
}

TEST(Integration, EightyGigSustained) {
  // Section 5/7: the replayer sustains higher rates; at 80 Gbps nothing
  // is lost end to end.
  const auto result = run_experiment(cfg_for(fabric_dedicated_80(), 20000));
  for (const auto size : result.capture_sizes) {
    EXPECT_EQ(size, 20000u);
  }
  EXPECT_EQ(result.replay_tx_drops, 0u);
}

TEST(Integration, CaptureArtifactsRoundTrip) {
  ExperimentConfig cfg = cfg_for(local_single(), 2000);
  cfg.keep_captures = true;
  const auto result = run_experiment(cfg);
  const std::string trc = ::testing::TempDir() + "integration.trc";
  const std::string pcap = ::testing::TempDir() + "integration.pcap";
  write_trace(result.captures[0], trc);
  trace::write_pcap(result.captures[0], pcap);

  const core::Trial original = rebased_trial(result.captures[0]);
  for (const trace::Capture& loaded :
       {trace::MappedCapture(trc).materialize(), trace::read_pcap(pcap)}) {
    const core::Trial trial = rebased_trial(loaded);
    ASSERT_EQ(trial.size(), original.size());
    for (std::size_t i = 0; i < trial.size(); ++i) {
      ASSERT_EQ(trial[i].id, original[i].id) << i;
      ASSERT_EQ(trial[i].time, original[i].time) << i;
    }
    EXPECT_EQ(core::compare_trials(original, trial).metrics.kappa, 1.0);
  }
  std::remove(trc.c_str());
  std::remove(pcap.c_str());
}

TEST(Integration, MetricsRecomputableFromSavedTraces) {
  // The paper's artifact flow: save per-run captures, analyse offline.
  // Dual replay reorders (O > 0), so every component is exercised; each
  // loader must reproduce the in-process metrics bit for bit.
  ExperimentConfig cfg = cfg_for(local_dual(), 3000, /*seed=*/5);
  cfg.runs = 3;
  cfg.keep_captures = true;
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.comparisons.size(), 2u);

  std::vector<std::string> trc, pcap;
  for (std::size_t i = 0; i < result.captures.size(); ++i) {
    const std::string base =
        ::testing::TempDir() + "integration_run" + std::to_string(i);
    trc.push_back(base + ".trc");
    pcap.push_back(base + ".pcap");
    write_trace(result.captures[i], trc.back());
    trace::write_pcap(result.captures[i], pcap.back());
  }
  // Loader 0: MappedCapture; 1: its materialized Capture; 2: read_pcap.
  const auto load = [&](int loader, std::size_t i) {
    if (loader == 0) return rebased_trial(trace::MappedCapture(trc[i]));
    if (loader == 1) {
      return rebased_trial(trace::MappedCapture(trc[i]).materialize());
    }
    return rebased_trial(trace::read_pcap(pcap[i]));
  };
  double worst_o = 0.0;
  for (int loader = 0; loader < 3; ++loader) {
    SCOPED_TRACE("loader " + std::to_string(loader));
    const core::Trial trial_a = load(loader, 0);
    for (std::size_t r = 1; r < trc.size(); ++r) {
      const core::ConsistencyMetrics offline =
          core::compare_trials(trial_a, load(loader, r)).metrics;
      const core::ConsistencyMetrics& in_process =
          result.comparisons[r - 1].metrics;
      EXPECT_EQ(offline.uniqueness, in_process.uniqueness) << r;
      EXPECT_EQ(offline.ordering, in_process.ordering) << r;
      EXPECT_EQ(offline.latency, in_process.latency) << r;
      EXPECT_EQ(offline.iat, in_process.iat) << r;
      EXPECT_EQ(offline.kappa, in_process.kappa) << r;
      worst_o = std::max(worst_o, offline.ordering);
    }
  }
  EXPECT_GT(worst_o, 0.0);
  for (const auto& p : trc) std::remove(p.c_str());
  for (const auto& p : pcap) std::remove(p.c_str());
}

TEST(Integration, NoBufferLeaksAcrossFullExperiment) {
  // Indirect leak check: a second identical experiment in the same
  // process must behave identically (pools are per-experiment; a leak
  // would surface as alloc failures or count drift).
  const auto a = run_experiment(cfg_for(local_single(), 5000, 3));
  const auto b = run_experiment(cfg_for(local_single(), 5000, 3));
  EXPECT_EQ(a.recorded_packets, b.recorded_packets);
  EXPECT_EQ(a.capture_sizes, b.capture_sizes);
}

}  // namespace
}  // namespace choir::testbed
