// The parallel execution layer's acceptance oracle: per-experiment
// comparisons and telemetry artifacts must be bit-identical whether they
// were produced sequentially or fanned across task-pool workers. These
// tests pass explicit job counts (the host may have a single core; the
// pool still interleaves via preemption) and compare against the
// sequential path. The BENCH_*.json artifacts get the same check from
// the BenchPaper.<id> ctests (--jobs 1 vs 4, and the committed
// baselines).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/task_pool.hpp"
#include "testbed/experiment.hpp"

namespace choir::testbed {
namespace {

void expect_bitwise_equal(const ExperimentResult& a,
                          const ExperimentResult& b) {
  EXPECT_EQ(a.recorded_packets, b.recorded_packets);
  EXPECT_EQ(a.capture_sizes, b.capture_sizes);
  ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
  for (std::size_t i = 0; i < a.comparisons.size(); ++i) {
    const auto& ca = a.comparisons[i];
    const auto& cb = b.comparisons[i];
    EXPECT_EQ(ca.metrics.kappa, cb.metrics.kappa);
    EXPECT_EQ(ca.metrics.uniqueness, cb.metrics.uniqueness);
    EXPECT_EQ(ca.metrics.ordering, cb.metrics.ordering);
    EXPECT_EQ(ca.metrics.iat, cb.metrics.iat);
    EXPECT_EQ(ca.metrics.latency, cb.metrics.latency);
    EXPECT_EQ(ca.common, cb.common);
    EXPECT_EQ(ca.lcs_length, cb.lcs_length);
    EXPECT_EQ(ca.moved, cb.moved);
    EXPECT_EQ(ca.sum_abs_latency_delta_ns, cb.sum_abs_latency_delta_ns);
    EXPECT_EQ(ca.sum_abs_iat_delta_ns, cb.sum_abs_iat_delta_ns);
    EXPECT_EQ(ca.series.iat_delta_ns, cb.series.iat_delta_ns);
    EXPECT_EQ(ca.series.latency_delta_ns, cb.series.latency_delta_ns);
    EXPECT_EQ(ca.series.move_distance, cb.series.move_distance);
  }
  EXPECT_EQ(a.mean.kappa, b.mean.kappa);
}

TEST(ParallelDeterminism, EvalJobsBitIdentical) {
  // The per-comparison fan-out inside one experiment: κ evaluation at
  // eval_jobs 1 vs 4 must agree bit for bit, series included.
  ExperimentConfig cfg;
  cfg.env = local_single();
  cfg.packets = 4000;
  cfg.runs = 5;
  cfg.seed = 11;
  cfg.collect_series = true;
  cfg.eval_jobs = 1;
  const auto sequential = run_experiment(cfg);
  cfg.eval_jobs = 4;
  const auto parallel = run_experiment(cfg);
  ASSERT_EQ(sequential.comparisons.size(), 4u);
  expect_bitwise_equal(sequential, parallel);
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

TEST(ParallelDeterminism, WorkerScopedProfilersMergeIntoTheSession) {
  // With profiling on, the parallel evaluation runs each comparison
  // under its own worker-scoped profiler and merges them after the
  // join: the session profile must still see every kappa.compare span.
  ExperimentConfig cfg;
  cfg.env = local_single();
  cfg.packets = 3000;
  cfg.runs = 5;
  cfg.seed = 21;
  cfg.telemetry.enabled = true;
  cfg.telemetry.profile = true;
  cfg.eval_jobs = 1;
  const auto sequential = run_experiment(cfg);
  cfg.eval_jobs = 4;
  const auto parallel = run_experiment(cfg);
  expect_bitwise_equal(sequential, parallel);

  ASSERT_NE(parallel.profile, nullptr);
  auto compare_count = [](const telemetry::SpanProfiler& profiler) {
    for (const auto& entry : profiler.summary()) {
      if (entry.name == "kappa.compare") return entry.agg.count;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(compare_count(*sequential.profile), 4u);
  EXPECT_EQ(compare_count(*parallel.profile), 4u);
}

}  // namespace
}  // namespace choir::testbed
