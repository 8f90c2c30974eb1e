// Microbenchmarks of the Section 3 metric machinery: the O(n log n)
// LIS/LCS, trial alignment, and full kappa computation at packet-capture
// scales (the paper analyses ~1.05 M-packet captures per run).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/compare_scratch.hpp"
#include "core/lis.hpp"
#include "core/metrics.hpp"

namespace {

using namespace choir;

core::Trial random_trial(Rng& rng, std::size_t n, double jitter_sigma,
                         std::size_t swaps) {
  core::Trial t;
  t.reserve(n);
  Ns now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(core::TrialPacket{
        core::PacketId{1, i},
        now + static_cast<Ns>(rng.normal(0.0, jitter_sigma))});
    now += 280;
  }
  // In-place neighbor swaps to create reordering work.
  std::vector<core::TrialPacket> pkts = t.packets();
  for (std::size_t s = 0; s < swaps; ++s) {
    const std::size_t i = rng.uniform_u64(n - 1);
    std::swap(pkts[i].id, pkts[i + 1].id);
  }
  return core::Trial(std::move(pkts));
}

void BM_LisRandomPermutation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::uint32_t> values(n);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::longest_increasing_subsequence(values));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LisRandomPermutation)->Range(1 << 10, 1 << 20)->Complexity();

void BM_LisNearlySorted(benchmark::State& state) {
  // The common case in practice: captures are nearly in order.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::uint32_t> values(n);
  for (std::uint32_t i = 0; i < n; ++i) values[i] = i;
  for (std::size_t s = 0; s < n / 100 + 1; ++s) {
    const std::size_t i = rng.uniform_u64(n - 1);
    std::swap(values[i], values[i + 1]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::longest_increasing_subsequence(values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LisNearlySorted)->Range(1 << 10, 1 << 20);

void BM_CompareTrialsClean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const core::Trial a = random_trial(rng, n, 0.0, 0);
  const core::Trial b = random_trial(rng, n, 15.0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compare_trials(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompareTrialsClean)->Range(1 << 12, 1 << 20);

void BM_CompareTrialsReordered(benchmark::State& state) {
  // Dual-replayer-style comparisons: heavy reordering work.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const core::Trial a = random_trial(rng, n, 0.0, 0);
  const core::Trial b = random_trial(rng, n, 15.0, n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compare_trials(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompareTrialsReordered)->Range(1 << 12, 1 << 18);

void BM_AlignFlat(benchmark::State& state) {
  // The arena alignment kernel in isolation: flat open-addressing id
  // table (shared, prebuilt reference index), epoch-stamped claim array,
  // reused LIS workspace — zero allocations per iteration once warm.
  // Contrast with BM_CompareTrialsReordered, which goes through the
  // allocating wrapper.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const core::Trial a = random_trial(rng, n, 0.0, 0);
  const core::Trial b = random_trial(rng, n, 15.0, n / 2);
  const core::ReferenceIndex ref(a);
  core::CompareScratch scratch;
  scratch.shared_ref = &ref;
  for (auto _ : state) {
    core::align_trials(a, b, scratch, &scratch.alignment);
    benchmark::DoNotOptimize(scratch.alignment.matches.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AlignFlat)->Range(1 << 12, 1 << 18);

void BM_RebaseTrial(benchmark::State& state) {
  // Time normalization runs once per capture ahead of every comparison.
  // It used to copy the whole packet vector and subtract per element;
  // Trial::shift_times is one in-place pass. Alternate +/- shifts keep
  // timestamps bounded across iterations.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  core::Trial t = random_trial(rng, n, 15.0, 0);
  Ns delta = 7;
  for (auto _ : state) {
    t.shift_times(delta);
    benchmark::DoNotOptimize(t.packets().data());
    delta = -delta;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RebaseTrial)->Range(1 << 12, 1 << 20);

void BM_CompareTrialsWithSeries(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const core::Trial a = random_trial(rng, n, 0.0, 0);
  const core::Trial b = random_trial(rng, n, 15.0, 0);
  core::ComparisonOptions opt;
  opt.collect_series = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compare_trials(a, b, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompareTrialsWithSeries)->Range(1 << 12, 1 << 20);

}  // namespace

BENCHMARK_MAIN();
