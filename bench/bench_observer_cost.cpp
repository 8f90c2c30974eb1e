// bench_observer_cost — what each observer costs, and proof that it
// perturbs nothing.
//
// Telemetry (with its sampler), the span profiler, the streaming monitor
// and the group flight recorder are all pure observers: enabling
// one draws no randomness the simulation uses and changes no decision,
// so a seeded run must be bit-identical with it on or off. The per-flow
// evaluation plane (flows on: multi-flow addressing, recorder
// classification, per-flow κ) is measured the same way, as the `flows`
// row. This bench runs one seeded 3-node replay group (the configuration
// with the most producers: coordinator, every member, PTP) with each
// observer alone and with none, and checks:
//
//   1. Bit identity: each observer's run matches the observer-off run
//      (mean metrics, recorded packets, capture sizes, beacon count);
//      for `flows`, the flows-on run's simulated counters match
//      flows-off. Equal capture sizes also mean equal simulated
//      recorder throughput, so no separate perturbation check exists.
//   2. Artifact determinism: the flight recorder's merged artifacts and
//      the series artifacts are byte-identical across two repeated runs.
//
// It reports each observer's (and the flow plane's) host cost in ns per
// captured packet over the observer-off run of the same repetition, as
// p25/p50/p75 with a stable/UNSTABLE spread label. Host time is machine
// dependent and never gates; the exit status is the whole verdict.
//
// Usage: bench_observer_cost [--packets N] [--reps R]
// Exits 1 on a bit-identity or artifact failure, 2 on a malformed
// command line.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/export.hpp"
#include "bench_common.hpp"
#include "obs/group_trace.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "testbed/scale.hpp"

namespace {

using namespace choir;

const char* const kObservers[] = {"telemetry", "profile", "monitor", "obs",
                                  "flows"};

/// `off` with exactly one observer on (the profiler opens a telemetry
/// session of its own).
testbed::ExperimentConfig with_observer(testbed::ExperimentConfig config,
                                        const std::string& name) {
  config.telemetry.enabled = name == "telemetry";
  config.telemetry.profile = name == "profile";
  config.monitor.enabled = name == "monitor";
  config.monitor.window_packets = 2048;
  config.obs.enabled = name == "obs";
  config.flow.enabled = name == "flows";
  config.flow.flows = 256;
  return config;
}

double run_ms(const testbed::ExperimentConfig& config,
              testbed::ExperimentResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = testbed::run_experiment(config);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t captured(const testbed::ExperimentResult& result) {
  std::uint64_t n = 0;
  for (const std::size_t size : result.capture_sizes) n += size;
  return n;
}

bool identical(const testbed::ExperimentResult& a,
               const testbed::ExperimentResult& b) {
  return std::memcmp(&a.mean, &b.mean, sizeof(a.mean)) == 0 &&
         a.recorded_packets == b.recorded_packets &&
         a.capture_sizes == b.capture_sizes &&
         a.group_stats.beacons_rx == b.group_stats.beacons_rx;
}

std::string artifacts_of(const testbed::ExperimentResult& result) {
  const obs::GroupTimeline timeline = obs::merge_timeline(*result.flight_log);
  return obs::render_group_trace(*result.flight_log, timeline) +
         obs::render_events_jsonl(*result.flight_log, timeline) +
         analysis::render_series_jsonl(*result.telemetry_series) +
         analysis::render_prometheus_text(*result.telemetry_series);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t packets = 0;
  int reps = 0;
  bool bad_count = false;
  try {
    packets = bench::u64_from_args("--packets", testbed::scale_from_env() / 4,
                                   1, &argc, argv);
    reps = bench::int_from_args("--reps", 5, 1, &argc, argv);
  } catch (const bench::UsageError& error) {
    std::fprintf(stderr, "bench_observer_cost: %s\n", error.what());
    bad_count = true;
  }
  if (bad_count || argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_observer_cost [--packets N] [--reps R]\n");
    return 2;
  }

  testbed::ExperimentConfig off;
  off.env = testbed::local_single();
  off.env.replayers = 3;
  off.env.replayer_sync_fraction_of_run = 0.0;
  off.env.replayer_sync_sigma_ns = 25.0;
  off.packets = packets;
  off.runs = 3;
  off.seed = 2025;
  off.collect_series = false;
  off.group.enabled = true;
  std::printf("observer-cost: %s group N=3, %llu packets/trial, %d runs, "
              "%d reps\n",
              off.env.name.c_str(), static_cast<unsigned long long>(packets),
              off.runs, reps);

  // Interleave the off run and every observer within each repetition so
  // slow host drift (thermal, scheduler) hits all sides alike.
  constexpr std::size_t kCount = std::size(kObservers);
  std::vector<analysis::StatSample> samples(kCount + 1);
  samples[0].path = "host.observer_cost.off.ns_per_packet";
  for (std::size_t k = 0; k < kCount; ++k) {
    samples[k + 1].path = std::string("host.observer_cost.") +
                          kObservers[k] + ".ns_per_packet";
  }
  testbed::ExperimentResult r_off;
  std::vector<testbed::ExperimentResult> r_on(kCount);
  for (int rep = 0; rep < reps; ++rep) {
    const double off_ms = run_ms(off, &r_off);
    const double per_packet = 1e6 / static_cast<double>(captured(r_off));
    samples[0].values.push_back(off_ms * per_packet);
    for (std::size_t k = 0; k < kCount; ++k) {
      const double on_ms = run_ms(with_observer(off, kObservers[k]), &r_on[k]);
      samples[k + 1].values.push_back((on_ms - off_ms) * per_packet);
    }
  }

  bool all_identical = true;
  for (std::size_t k = 0; k < kCount; ++k) {
    const bool same = identical(r_off, r_on[k]);
    all_identical = all_identical && same;
    std::printf("  %-9s bit-identical: %s\n", kObservers[k],
                same ? "yes" : "NO");
  }

  // Artifact determinism across two repeated runs.
  testbed::ExperimentConfig traced = off;
  traced.obs.enabled = true;
  traced.telemetry.enabled = true;
  traced.telemetry.series_interval = milliseconds(1);
  testbed::ExperimentResult r_first, r_second;
  run_ms(traced, &r_first);
  run_ms(traced, &r_second);
  const bool artifacts_identical =
      artifacts_of(r_first) == artifacts_of(r_second);
  std::printf("  obs + series artifacts byte-identical across two runs: %s\n",
              artifacts_identical ? "yes" : "NO");

  // Host cost: report-only quartiles and spread labels.
  std::fputs(
      analysis::render_stat_verdicts(analysis::statistical_verdicts(samples))
          .c_str(),
      stdout);

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: an observer perturbed the simulation\n");
    return 1;
  }
  if (!artifacts_identical) {
    std::fprintf(stderr,
                 "FAIL: obs/series artifacts differ between two runs\n");
    return 1;
  }
  return 0;
}
