// bench_monitor_overhead — proves the streaming monitor does not
// perturb the system under test.
//
// The monitor's contract (docs/MONITOR.md) is that it is a pure
// observer of the replay pipeline: enabling it must not change what the
// testbed measures. The quantity that matters for the paper's fidelity
// claims is the *system's* throughput and consistency — recorded
// packets per simulated second at the recorder, the capture contents,
// and the κ metrics — so that is what the gate checks:
//
//   1. Simulated recorder throughput with the monitor off vs on. The
//      design target is <2% perturbation; because the monitor draws no
//      randomness and schedules no events, the measured perturbation is
//      exactly 0% and the full results are bit-identical (also checked).
//   2. Host-side cost, reported for transparency: wall-clock overhead
//      of the monitored run (the κ pipeline runs inline on the
//      simulation thread), plus a microbenchmark of the per-packet
//      pipeline (FlatIndex probe, Fenwick, LIS).
//
// Usage: bench_monitor_overhead [--check PCT] [--packets N] [--reps R]
//   --check PCT  exit non-zero when simulated-throughput perturbation
//                exceeds PCT percent or when results are not
//                bit-identical (CI gates on --check 2).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "monitor/monitor.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "testbed/scale.hpp"

namespace {

using namespace choir;
using Clock = std::chrono::steady_clock;

double run_once_ms(const testbed::ExperimentConfig& config,
                   testbed::ExperimentResult* out) {
  const auto t0 = Clock::now();
  *out = testbed::run_experiment(config);
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Recorder throughput on the simulated timeline: packets per simulated
/// second across all captured runs.
double sim_throughput_pps(const testbed::ExperimentResult& result,
                          int runs) {
  std::uint64_t captured = 0;
  for (const std::size_t n : result.capture_sizes) captured += n;
  const double seconds =
      to_seconds(result.trial_duration) * static_cast<double>(runs);
  return seconds > 0.0 ? static_cast<double>(captured) / seconds : 0.0;
}

double observe_ns_per_packet(std::size_t packets) {
  monitor::MonitorConfig cfg;
  cfg.reference_from_first_stream = false;
  monitor::StreamMonitor mon(cfg);
  // Reference: packets 1 us apart, identity ids.
  {
    std::vector<core::TrialPacket> ref(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      ref[i].id = core::PacketId{0x1234, static_cast<std::uint64_t>(i)};
      ref[i].time = static_cast<Ns>(i) * 1000;
    }
    mon.set_reference(core::Trial(std::move(ref)));
  }
  mon.begin_stream("bench");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < packets; ++i) {
    mon.observe(core::PacketId{0x1234, static_cast<std::uint64_t>(i)},
                static_cast<Ns>(i) * 1000 + 37);
  }
  const auto t1 = Clock::now();
  mon.finalize();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(packets);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("monitor_overhead", &argc, argv);
  const double check_pct = bench::double_from_args("--check", -1.0, &argc,
                                                   argv);
  const std::uint64_t packets = bench::u64_from_args(
      "--packets", testbed::scale_from_env() / 4, &argc, argv);
  const int reps = bench::int_from_args("--reps", 3, &argc, argv);
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_monitor_overhead [--check PCT] "
                 "[--packets N] [--reps R]\n");
    return 2;
  }

  testbed::ExperimentConfig off;
  off.env = testbed::local_single();
  off.packets = packets;
  off.runs = 3;
  off.seed = 2025;
  off.collect_series = false;
  testbed::ExperimentConfig on = off;
  on.monitor.enabled = true;
  on.monitor.window_packets = 2048;

  std::printf("monitor-overhead: %s, %llu packets/trial, %d runs, %d reps\n",
              off.env.name.c_str(),
              static_cast<unsigned long long>(packets), off.runs, reps);

  // Interleave off/on repetitions so slow-drift host noise (thermal,
  // scheduler) hits both sides equally; keep the minimum of each.
  double best_off = 1e300;
  double best_on = 1e300;
  testbed::ExperimentResult r_off, r_on;
  for (int r = 0; r < reps; ++r) {
    best_off = std::min(best_off, run_once_ms(off, &r_off));
    best_on = std::min(best_on, run_once_ms(on, &r_on));
  }

  // The gated metric: throughput of the system under test.
  const double pps_off = sim_throughput_pps(r_off, off.runs);
  const double pps_on = sim_throughput_pps(r_on, on.runs);
  const double perturbation_pct =
      pps_off > 0.0 ? 100.0 * std::abs(pps_on - pps_off) / pps_off : 0.0;
  const bool identical =
      std::memcmp(&r_off.mean, &r_on.mean, sizeof(r_off.mean)) == 0 &&
      r_off.recorded_packets == r_on.recorded_packets &&
      r_off.capture_sizes == r_on.capture_sizes;

  std::printf("  recorder throughput (simulated): off %.0f pps, on %.0f pps\n",
              pps_off, pps_on);
  std::printf("  throughput perturbation: %.4f%%\n", perturbation_pct);
  std::printf("  results bit-identical: %s (mean kappa %.17g)\n",
              identical ? "yes" : "NO", r_off.mean.kappa);
  std::printf("  host wall time: off min %.2f ms, on min %.2f ms (%+.2f%%)\n",
              best_off, best_on, 100.0 * (best_on - best_off) / best_off);
  std::printf("  monitored: %zu windows, %zu attributed packets\n",
              r_on.monitor != nullptr ? r_on.monitor->windows().size() : 0,
              r_on.monitor != nullptr ? r_on.monitor->divergence().size() : 0);
  const double observe_ns = observe_ns_per_packet(1u << 20);
  std::printf("  observe() pipeline: %.1f ns/packet\n", observe_ns);

  // Simulated quantities are deterministic; host wall times go behind
  // the CHOIR_BENCH_HOST_TIME gate.
  reporter.add_metric("sim_pps_off", pps_off);
  reporter.add_metric("sim_pps_on", pps_on);
  reporter.add_metric("perturbation_pct", perturbation_pct);
  reporter.add_metric("bit_identical", identical ? 1.0 : 0.0);
  reporter.add_metric("mean_kappa", r_off.mean.kappa);
  reporter.add_host_metric("wall_ms_off", best_off);
  reporter.add_host_metric("wall_ms_on", best_on);
  reporter.add_host_metric("observe_ns_per_packet", observe_ns);
  reporter.finish();

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: monitor perturbed the simulation "
                 "(results differ with monitor on)\n");
    return 1;
  }
  if (check_pct >= 0.0 && perturbation_pct > check_pct) {
    std::fprintf(stderr,
                 "FAIL: throughput perturbation %.4f%% exceeds %.2f%% "
                 "threshold\n",
                 perturbation_pct, check_pct);
    return 1;
  }
  return 0;
}
