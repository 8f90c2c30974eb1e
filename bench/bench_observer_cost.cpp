// bench_observer_cost — what each observer costs, and proof that it
// perturbs nothing.
//
// Telemetry, the span profiler, the series sampler, the streaming
// monitor and the group flight recorder are all pure observers: enabling
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
//      flows-off.
//   2. Artifact determinism: the flight recorder's merged artifacts and
//      the series artifacts are byte-identical at eval_jobs 1 and 4.
//   3. Simulated recorder throughput perturbation (0% by construction),
//      gated by --check.
//
// It reports each observer's (and the flow plane's) host cost in ns per
// captured packet over the observer-off run of the same repetition, as
// report-only statistical verdicts (no baseline is committed: host time
// is machine dependent).
//
// Usage: bench_observer_cost [--check PCT] [--packets N] [--reps R]
//   --check PCT  exit non-zero when any observer perturbs simulated
//                throughput by more than PCT percent (CI: --check 2).
//                Bit-identity and artifact failures always exit 1.
#include <algorithm>
#include <chrono>
#include <cmath>
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

const char* const kObservers[] = {"telemetry", "profile", "series", "monitor",
                                  "obs",       "flows"};

/// `off` with exactly one observer on (profile and series ride a
/// telemetry session, as they do on the command line).
testbed::ExperimentConfig with_observer(testbed::ExperimentConfig config,
                                        const std::string& name) {
  config.telemetry.enabled =
      name == "telemetry" || name == "profile" || name == "series";
  config.telemetry.profile = name == "profile";
  if (name == "series") config.telemetry.series_interval = milliseconds(1);
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

/// Recorder throughput on the simulated timeline: packets per simulated
/// second across all captured runs.
double sim_pps(const testbed::ExperimentResult& result, int runs) {
  const double seconds =
      to_seconds(result.trial_duration) * static_cast<double>(runs);
  return seconds > 0.0 ? static_cast<double>(captured(result)) / seconds
                       : 0.0;
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
  bench::Reporter reporter("observer_cost", &argc, argv);
  const double check_pct =
      bench::double_from_args("--check", -1.0, &argc, argv);
  const std::uint64_t packets = bench::u64_from_args(
      "--packets", testbed::scale_from_env() / 4, &argc, argv);
  const int reps = bench::int_from_args("--reps", 5, &argc, argv);
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_observer_cost [--check PCT] [--packets N] "
                 "[--reps R]\n");
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

  const double pps_off = sim_pps(r_off, off.runs);
  double worst_pct = 0.0;
  bool all_identical = true;
  reporter.add_metric("sim_pps_off", pps_off);
  reporter.add_metric("mean_kappa", r_off.mean.kappa);
  for (std::size_t k = 0; k < kCount; ++k) {
    const double pps_on = sim_pps(r_on[k], off.runs);
    const double pct =
        pps_off > 0.0 ? 100.0 * std::abs(pps_on - pps_off) / pps_off : 0.0;
    const bool same = identical(r_off, r_on[k]);
    worst_pct = std::max(worst_pct, pct);
    all_identical = all_identical && same;
    std::printf("  %-9s bit-identical: %-3s  throughput perturbation %.4f%%\n",
                kObservers[k], same ? "yes" : "NO", pct);
    const std::string key = kObservers[k];
    reporter.add_metric(key + ".sim_pps", pps_on);
    reporter.add_metric(key + ".bit_identical", same ? 1.0 : 0.0);
  }

  // Artifact determinism across evaluation job counts.
  testbed::ExperimentConfig seq = off;
  seq.obs.enabled = true;
  seq.telemetry.enabled = true;
  seq.telemetry.series_interval = milliseconds(1);
  seq.eval_jobs = 1;
  testbed::ExperimentConfig par = seq;
  par.eval_jobs = 4;
  testbed::ExperimentResult r_seq, r_par;
  run_ms(seq, &r_seq);
  run_ms(par, &r_par);
  const bool artifacts_identical = artifacts_of(r_seq) == artifacts_of(r_par);
  std::printf("  obs + series artifacts byte-identical across jobs 1/4: %s\n",
              artifacts_identical ? "yes" : "NO");
  reporter.add_metric("perturbation_pct", worst_pct);
  reporter.add_metric("artifacts_identical", artifacts_identical ? 1.0 : 0.0);

  // Host cost: report-only verdicts (no baseline), lower is better.
  analysis::StatOptions options;
  options.higher_is_better = false;
  const analysis::StatResult verdicts =
      analysis::statistical_verdicts(samples, {}, options);
  std::fputs(analysis::render_stat_verdicts(verdicts).c_str(), stdout);
  for (const analysis::StatVerdict& v : verdicts.verdicts) {
    reporter.add_host_metric(v.path.substr(5), v.median);
  }
  reporter.finish();

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: an observer perturbed the simulation\n");
    return 1;
  }
  if (!artifacts_identical) {
    std::fprintf(stderr,
                 "FAIL: obs/series artifacts differ across --jobs values\n");
    return 1;
  }
  if (check_pct >= 0.0 && worst_pct > check_pct) {
    std::fprintf(stderr,
                 "FAIL: throughput perturbation %.4f%% exceeds %.2f%% "
                 "threshold\n",
                 worst_pct, check_pct);
    return 1;
  }
  return 0;
}
