// The parallel execution layer's acceptance oracle: an experiment's
// results and telemetry artifacts must be bit-identical whether it ran
// on the calling thread or on a task-pool worker beside others. These
// tests pass explicit job counts (the host may have a single core; the
// pool still interleaves via preemption) and compare against the
// sequential path. The BENCH_*.json artifacts get the same check from
// the BenchPaper.<id> ctests (--jobs 1 vs 4, and the committed
// baselines). The same field-by-field comparison checks that kept and
// reused capture buffers give identical results (RoundClose below).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "monitor/stream_monitor.hpp"
#include "telemetry/span_profiler.hpp"
#include "testbed/experiment.hpp"

namespace choir::testbed {
namespace {

void expect_same_metrics(const core::ConsistencyMetrics& a,
                         const core::ConsistencyMetrics& b) {
  EXPECT_EQ(a.uniqueness, b.uniqueness);
  EXPECT_EQ(a.ordering, b.ordering);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.iat, b.iat);
  EXPECT_EQ(a.kappa, b.kappa);
}

void expect_same_comparison(const core::ComparisonResult& a,
                            const core::ComparisonResult& b) {
  expect_same_metrics(a.metrics, b.metrics);
  EXPECT_EQ(a.series.iat_delta_ns, b.series.iat_delta_ns);
  EXPECT_EQ(a.series.latency_delta_ns, b.series.latency_delta_ns);
  EXPECT_EQ(a.series.move_distance, b.series.move_distance);
  EXPECT_EQ(a.size_a, b.size_a);
  EXPECT_EQ(a.size_b, b.size_b);
  EXPECT_EQ(a.common, b.common);
  EXPECT_EQ(a.lcs_length, b.lcs_length);
  EXPECT_EQ(a.moved, b.moved);
  EXPECT_EQ(a.sum_abs_latency_delta_ns, b.sum_abs_latency_delta_ns);
  EXPECT_EQ(a.sum_abs_iat_delta_ns, b.sum_abs_iat_delta_ns);
  EXPECT_EQ(a.sum_abs_move_distance, b.sum_abs_move_distance);
}

void expect_same_aggregate(const flow::FlowAggregate& a,
                           const flow::FlowAggregate& b) {
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.only_a, b.only_a);
  EXPECT_EQ(a.only_b, b.only_b);
  EXPECT_EQ(a.worst, b.worst);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
  EXPECT_EQ(a.weighted_mean, b.weighted_mean);
  EXPECT_EQ(a.mean, b.mean);
}

void expect_same_flows(const flow::FlowSetComparison& a,
                       const flow::FlowSetComparison& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    const flow::FlowComparison& fa = a.flows[f];
    const flow::FlowComparison& fb = b.flows[f];
    EXPECT_EQ(fa.key, fb.key);
    EXPECT_EQ(fa.id, fb.id);
    EXPECT_EQ(fa.packets_a, fb.packets_a);
    EXPECT_EQ(fa.packets_b, fb.packets_b);
    EXPECT_EQ(fa.in_a, fb.in_a);
    EXPECT_EQ(fa.in_b, fb.in_b);
    expect_same_metrics(fa.metrics, fb.metrics);
  }
  expect_same_aggregate(a.aggregate, b.aggregate);
  EXPECT_EQ(a.unclassified_a, b.unclassified_a);
  EXPECT_EQ(a.unclassified_b, b.unclassified_b);
}

void expect_same_group(const app::GroupStats& a, const app::GroupStats& b) {
  EXPECT_EQ(a.beacons_rx, b.beacons_rx);
  EXPECT_EQ(a.beacons_malformed, b.beacons_malformed);
  EXPECT_EQ(a.rounds_started, b.rounds_started);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.rounds_degraded, b.rounds_degraded);
  EXPECT_EQ(a.members_started, b.members_started);
  EXPECT_EQ(a.ready_timeouts, b.ready_timeouts);
  EXPECT_EQ(a.stragglers_detected, b.stragglers_detected);
  EXPECT_EQ(a.resyncs_sent, b.resyncs_sent);
  EXPECT_EQ(a.rejoins, b.rejoins);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.barrier_worst_residual_ns, b.barrier_worst_residual_ns);
}

/// The monitor's windows and divergence records: it reads run A and each
/// later run from the round close, so kept and reused captures must give
/// it the same trials.
void expect_same_monitor(const monitor::StreamMonitor& a,
                         const monitor::StreamMonitor& b) {
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const monitor::WindowRecord& wa = a.windows()[i];
    const monitor::WindowRecord& wb = b.windows()[i];
    EXPECT_EQ(wa.stream_name, wb.stream_name);
    EXPECT_EQ(wa.index, wb.index);
    EXPECT_EQ(wa.b_begin, wb.b_begin);
    EXPECT_EQ(wa.b_end, wb.b_end);
    EXPECT_EQ(wa.a_begin, wb.a_begin);
    EXPECT_EQ(wa.a_end, wb.a_end);
    EXPECT_EQ(wa.first_time_ns, wb.first_time_ns);
    EXPECT_EQ(wa.last_time_ns, wb.last_time_ns);
    expect_same_metrics(wa.metrics, wb.metrics);
    EXPECT_EQ(wa.common, wb.common);
    EXPECT_EQ(wa.moved, wb.moved);
    EXPECT_EQ(wa.missing, wb.missing);
    EXPECT_EQ(wa.extra, wb.extra);
    EXPECT_EQ(wa.lcs_length, wb.lcs_length);
    EXPECT_EQ(wa.has_flows, wb.has_flows);
    expect_same_aggregate(wa.flow_aggregate, wb.flow_aggregate);
  }
  ASSERT_EQ(a.divergence().size(), b.divergence().size());
  for (std::size_t i = 0; i < a.divergence().size(); ++i) {
    SCOPED_TRACE("divergence record " + std::to_string(i));
    const monitor::DivergenceRecord& ra = a.divergence()[i];
    const monitor::DivergenceRecord& rb = b.divergence()[i];
    EXPECT_EQ(ra.kind, rb.kind);
    EXPECT_EQ(ra.stream_name, rb.stream_name);
    EXPECT_EQ(ra.window, rb.window);
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.index_a, rb.index_a);
    EXPECT_EQ(ra.index_b, rb.index_b);
    EXPECT_EQ(ra.move, rb.move);
    EXPECT_EQ(ra.latency_delta_ns, rb.latency_delta_ns);
    EXPECT_EQ(ra.time_ns, rb.time_ns);
  }
}

void expect_bitwise_equal(const ExperimentResult& a,
                          const ExperimentResult& b) {
  EXPECT_EQ(a.capture_sizes, b.capture_sizes);
  EXPECT_EQ(a.recorded_packets, b.recorded_packets);
  EXPECT_EQ(a.events_by_component, b.events_by_component);
  ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
  for (std::size_t i = 0; i < a.comparisons.size(); ++i) {
    SCOPED_TRACE("comparison " + std::to_string(i));
    expect_same_comparison(a.comparisons[i], b.comparisons[i]);
  }
  expect_same_metrics(a.mean, b.mean);
  EXPECT_EQ(a.flow_count, b.flow_count);
  EXPECT_EQ(a.flow_unclassified, b.flow_unclassified);
  ASSERT_EQ(a.flow_comparisons.size(), b.flow_comparisons.size());
  for (std::size_t i = 0; i < a.flow_comparisons.size(); ++i) {
    SCOPED_TRACE("flow comparison " + std::to_string(i));
    expect_same_flows(a.flow_comparisons[i], b.flow_comparisons[i]);
  }
  expect_same_group(a.group_stats, b.group_stats);
  ASSERT_EQ(a.monitor == nullptr, b.monitor == nullptr);
  if (a.monitor != nullptr) expect_same_monitor(*a.monitor, *b.monitor);
}

TEST(ParallelDeterminism, WorkerScopedProfilersMergeIntoTheSession) {
  // Every run is compared at its round close on the experiment's own
  // thread, so the session profile sees each of the four kappa.compare
  // spans.
  ExperimentConfig cfg;
  cfg.env = local_single();
  cfg.packets = 3000;
  cfg.runs = 5;
  cfg.seed = 21;
  cfg.telemetry.enabled = true;
  cfg.telemetry.profile = true;
  const auto result = run_experiment(cfg);
  ASSERT_NE(result.profile, nullptr);
  std::uint64_t compares = 0;
  for (const auto& entry : result.profile->summary()) {
    if (entry.name == "kappa.compare") compares = entry.agg.count;
  }
  EXPECT_EQ(compares, 4u);
}

TEST(ParallelDeterminism, ConcurrentExperimentsKeepTelemetryIsolated) {
  // Telemetry installation is thread-local: experiments running
  // concurrently on pool workers must each observe exactly the session
  // a sequential run of the same config would.
  auto config_for = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.env = local_single();
    cfg.packets = 3000;
    cfg.runs = 3;
    cfg.seed = seed;
    cfg.collect_series = false;
    cfg.telemetry.enabled = true;
    return cfg;
  };
  const std::vector<std::uint64_t> seeds = {5, 6, 7, 8};

  std::vector<ExperimentResult> reference;
  for (const auto seed : seeds) {
    reference.push_back(run_experiment(config_for(seed)));
  }
  const auto concurrent = parallel_map_indexed<ExperimentResult>(
      4, seeds.size(),
      [&](std::size_t i) { return run_experiment(config_for(seeds[i])); });

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_bitwise_equal(reference[i], concurrent[i]);
    ASSERT_NE(concurrent[i].telemetry_registry, nullptr);
    const auto ref_snap = reference[i].telemetry_registry->snapshot(0);
    const auto par_snap = concurrent[i].telemetry_registry->snapshot(0);
    EXPECT_EQ(ref_snap.counters, par_snap.counters) << "seed " << seeds[i];
    EXPECT_EQ(ref_snap.gauges, par_snap.gauges) << "seed " << seeds[i];
    ASSERT_NE(concurrent[i].telemetry_trace, nullptr);
    EXPECT_EQ(reference[i].telemetry_trace->events().size(),
              concurrent[i].telemetry_trace->events().size());
  }
}

// Each run closes at its round end. With captures kept, every run records
// into its own buffer, which moves to the result; without, one buffer is
// refilled run after run. Both must give the same evaluation bit for bit:
// the closed runs are all the evaluation reads, and run A's closed trial
// is all the monitor reads of the reference.

constexpr int kRuns = 4;

struct RoundCloseCase {
  const char* name;
  ExperimentConfig config;
};

std::ostream& operator<<(std::ostream& os, const RoundCloseCase& c) {
  return os << c.name;
}

ExperimentConfig small(EnvironmentPreset env, std::uint64_t packets) {
  ExperimentConfig config;
  config.env = std::move(env);
  config.packets = packets;
  config.runs = kRuns;
  config.seed = 5;
  config.collect_series = true;
  return config;
}

/// The chaos preset with frame duplication as its only fault, on the
/// link into the recorder: every run captures more frames than the trial
/// has packets, so each outgrows the buffer reserved for it.
ExperimentConfig duplicating_chaos() {
  ExperimentConfig config = small(chaos_single(1.0), 4000);
  fault::FaultEvent dup;
  dup.kind = fault::FaultKind::kLinkDuplicate;
  dup.target = "link.to-recorder";
  dup.duration = seconds(30);
  dup.probability = 0.02;
  dup.delay = microseconds(5);
  config.env.faults = fault::FaultPlan{};
  config.env.faults.add(dup);
  return config;
}

ExperimentConfig noisy_group_flows_monitor() {
  ExperimentConfig config = small(fabric_shared_40_noisy(), 3000);
  config.env.replayers = 4;
  config.group.enabled = true;
  config.flow.enabled = true;
  config.flow.flows = 64;
  config.monitor.enabled = true;
  config.monitor.window_packets = 512;
  return config;
}

class RoundClose : public ::testing::TestWithParam<RoundCloseCase> {};

TEST_P(RoundClose, KeptAndReusedCapturesGiveIdenticalResults) {
  ExperimentConfig config = GetParam().config;
  config.keep_captures = true;
  const ExperimentResult kept = run_experiment(config);
  ASSERT_EQ(kept.captures.size(), static_cast<std::size_t>(kRuns));
  for (std::size_t r = 0; r < kept.captures.size(); ++r) {
    EXPECT_EQ(kept.captures[r].name(), "run-" + std::to_string(r));
    EXPECT_EQ(kept.captures[r].size(), kept.capture_sizes[r]);
  }
  config.keep_captures = false;
  const ExperimentResult reused = run_experiment(config);
  EXPECT_TRUE(reused.captures.empty());
  expect_bitwise_equal(kept, reused);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, RoundClose,
    ::testing::Values(
        RoundCloseCase{"local_single", small(local_single(), 4000)},
        RoundCloseCase{"local_dual", small(local_dual(), 4000)},
        RoundCloseCase{"chaos_duplicating", duplicating_chaos()},
        RoundCloseCase{"shared_noisy_group_flows_monitor",
                       noisy_group_flows_monitor()}),
    [](const ::testing::TestParamInfo<RoundCloseCase>& info) {
      return std::string(info.param.name);
    });

TEST(RoundClose, DuplicatingChaosOutgrowsTheReservedCapture) {
  // The chaos case above covers the regrow path: duplicated frames make
  // every run capture more packets than the buffer reserved for it.
  const ExperimentConfig config = duplicating_chaos();
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.fault_stats.frames_duplicated, 0u);
  for (const std::size_t size : result.capture_sizes) {
    EXPECT_GT(size, config.packets);
  }
}

}  // namespace
}  // namespace choir::testbed
