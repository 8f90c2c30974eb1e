// Raw κ-kernel throughput probe: single-core compare_trials repetitions
// over synthetic trials with a reused CompareScratch and shared
// ReferenceIndex, judged with the PASTRAMI-style statistical verdicts
// (docs/BENCHMARKS.md). This is the committed-baseline CI gate for the
// comparison kernel's speed; it never writes BENCH_*.json. (The κ
// scaling ablation over the environments is `bench_paper
// kappa_scaling`.)
//
//   bench_kappa_scaling --kernel [--packets N] [--reps R]
//                       [--stats-baseline FILE] [--stats-out FILE]
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

int run_kernel(std::size_t n, const choir::bench::HostStats& stats) {
  using namespace choir;
  using clock = std::chrono::steady_clock;
  const int reps = stats.reps;

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

  return bench::judge_host_sample(sample, stats);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choir;
  const bool kernel = bench::flag_from_args("--kernel", &argc, argv);
  const auto packets = static_cast<std::size_t>(
      bench::u64_from_args("--packets", 1ull << 16, &argc, argv));
  const bench::HostStats stats = bench::host_stats_from_args(5, &argc, argv);
  if (!kernel || argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_kappa_scaling --kernel [--packets N] "
                 "[--reps R]\n"
                 "                           [--stats-baseline FILE] "
                 "[--stats-out FILE]\n");
    return 2;
  }
  try {
    return run_kernel(packets, stats);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_kappa_scaling: %s\n", error.what());
    return 1;
  }
}
