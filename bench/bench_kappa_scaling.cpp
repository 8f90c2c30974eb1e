// Raw κ-kernel throughput probe: single-core compare_trials repetitions
// over synthetic trials with a reused CompareScratch and shared
// ReferenceIndex, reported as p25/p50/p75 comparisons/s with a
// stable/UNSTABLE spread label (docs/BENCHMARKS.md). Host time never
// gates; the run fails (exit 1) only when the steady-state loop grows
// its scratch or miscounts comparisons, and a malformed count prints
// the usage (exit 2). It never writes BENCH_*.json. (The κ scaling
// ablation over the environments is `bench_paper kappa_scaling`.)
//
//   bench_kappa_scaling --kernel [--packets N] [--reps R]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/bench_report.hpp"
#include "bench_common.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/compare_scratch.hpp"
#include "core/metrics.hpp"

namespace {

choir::core::Trial random_trial(choir::Rng& rng, std::size_t n,
                                double jitter_sigma, std::size_t swaps) {
  using namespace choir;
  core::Trial t;
  t.reserve(n);
  Ns now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(core::TrialPacket{
        core::PacketId{1, i},
        now + static_cast<Ns>(rng.normal(0.0, jitter_sigma))});
    now += 280;
  }
  std::vector<core::TrialPacket> pkts = t.packets();
  for (std::size_t s = 0; s < swaps; ++s) {
    const std::size_t i = rng.uniform_u64(n - 1);
    std::swap(pkts[i].id, pkts[i + 1].id);
  }
  return core::Trial(std::move(pkts));
}

void run_kernel(std::size_t n, int reps) {
  using namespace choir;
  using clock = std::chrono::steady_clock;

  // Dual-replayer-shaped work: jittered timestamps plus n/8 neighbor
  // swaps keep the LIS partition nontrivial without drowning it.
  Rng rng(1234);
  const core::Trial a = random_trial(rng, n, 0.0, 0);
  const core::Trial b = random_trial(rng, n, 15.0, n / 8);
  const core::ComparisonOptions options;  // metrics only

  const core::ReferenceIndex ref(a);
  core::CompareScratch scratch;
  scratch.shared_ref = &ref;

  // Warm up once (grows every scratch buffer to working size), then
  // calibrate an iteration count that keeps one repetition around a
  // third of a second.
  double kappa_sink = 0.0;
  const auto warm_start = clock::now();
  kappa_sink += core::compare_trials(a, b, options, scratch).metrics.kappa;
  const double warm_s =
      std::chrono::duration<double>(clock::now() - warm_start).count();
  const auto iters = static_cast<std::size_t>(
      std::max(3.0, 0.35 / std::max(warm_s, 1e-6)));
  const std::uint64_t grows_after_warmup = scratch.total_grows();

  analysis::StatSample sample;
  sample.path = "host.kappa_kernel.cps_per_core";
  for (int r = 0; r < reps; ++r) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      kappa_sink +=
          core::compare_trials(a, b, options, scratch).metrics.kappa;
    }
    const double sec =
        std::chrono::duration<double>(clock::now() - start).count();
    sample.values.push_back(static_cast<double>(iters) /
                            std::max(sec, 1e-9));
  }
  // The steady-state loop must never touch the allocator: every buffer
  // growth is counted, and a reused scratch that grew after warmup
  // means a per-comparison allocation crept back in.
  CHOIR_EXPECT(scratch.total_grows() == grows_after_warmup,
               "compare scratch grew during steady-state kernel loop");
  CHOIR_EXPECT(scratch.comparisons ==
                   1 + static_cast<std::uint64_t>(reps) * iters,
               "kernel comparison count mismatch");

  std::printf(
      "kappa kernel: %zu packets/trial, %zu comparisons x %d reps, "
      "single core (mean kappa %.4f)\n",
      n, iters, reps,
      kappa_sink / static_cast<double>(1 + std::size_t(reps) * iters));

  std::fputs(analysis::render_stat_verdicts(
                 analysis::statistical_verdicts({sample}))
                 .c_str(),
             stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choir;
  const bool kernel = bench::flag_from_args("--kernel", &argc, argv);
  std::uint64_t packets = 0;
  int reps = 0;
  bool bad_count = false;
  try {
    packets = bench::u64_from_args("--packets", 1ull << 16, 1, &argc, argv);
    reps = bench::int_from_args("--reps", 5, 1, &argc, argv);
  } catch (const bench::UsageError& error) {
    std::fprintf(stderr, "bench_kappa_scaling: %s\n", error.what());
    bad_count = true;
  }
  if (bad_count || !kernel || argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_kappa_scaling --kernel [--packets N] "
                 "[--reps R]\n");
    return 2;
  }
  try {
    run_kernel(static_cast<std::size_t>(packets), reps);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_kappa_scaling: %s\n", error.what());
    return 1;
  }
}
