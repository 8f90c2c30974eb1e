// Tests for the comparison arena (core/compare_scratch.hpp): the flat
// open-addressing ReferenceIndex, the reused CompareScratch, and their
// contracts — bit-identical results to the allocating overloads, the
// same duplicate-id diagnostics, and zero buffer growth in steady
// state.
#include "common/task_pool.hpp"
#include "core/compare_scratch.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/lis.hpp"
#include "core/metrics.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir::core {
namespace {

Trial random_trial(Rng& rng, std::size_t n, double jitter_sigma,
                   std::size_t swaps, std::size_t drops = 0) {
  Trial t;
  t.reserve(n);
  Ns now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (drops > 0 && rng.uniform_u64(n) < drops) continue;
    t.push_back(TrialPacket{PacketId{1, i},
                            now + static_cast<Ns>(rng.normal(0.0, jitter_sigma))});
    now += 280;
  }
  std::vector<TrialPacket> pkts = t.packets();
  if (pkts.size() > 1) {
    for (std::size_t s = 0; s < swaps; ++s) {
      const std::size_t i = rng.uniform_u64(pkts.size() - 1);
      std::swap(pkts[i].id, pkts[i + 1].id);
    }
  }
  return Trial(std::move(pkts));
}

void expect_same_result(const ComparisonResult& x, const ComparisonResult& y) {
  // Bitwise equality: the arena overload promises identical output, not
  // merely close output (byte-deterministic artifacts depend on it).
  EXPECT_EQ(x.metrics.uniqueness, y.metrics.uniqueness);
  EXPECT_EQ(x.metrics.ordering, y.metrics.ordering);
  EXPECT_EQ(x.metrics.latency, y.metrics.latency);
  EXPECT_EQ(x.metrics.iat, y.metrics.iat);
  EXPECT_EQ(x.metrics.kappa, y.metrics.kappa);
  EXPECT_EQ(x.size_a, y.size_a);
  EXPECT_EQ(x.size_b, y.size_b);
  EXPECT_EQ(x.common, y.common);
  EXPECT_EQ(x.lcs_length, y.lcs_length);
  EXPECT_EQ(x.moved, y.moved);
  EXPECT_EQ(x.sum_abs_latency_delta_ns, y.sum_abs_latency_delta_ns);
  EXPECT_EQ(x.sum_abs_iat_delta_ns, y.sum_abs_iat_delta_ns);
  EXPECT_EQ(x.sum_abs_move_distance, y.sum_abs_move_distance);
}

TEST(ReferenceIndex, LookupFindsEveryPacket) {
  Rng rng(11);
  const Trial a = random_trial(rng, 1000, 5.0, 0);
  const ReferenceIndex index(a);
  EXPECT_EQ(index.size(), a.size());
  for (std::uint32_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(index.lookup(a[j].id), j);
  }
  EXPECT_EQ(index.lookup(PacketId{99, 99}), ReferenceIndex::kNoIndex);
}

TEST(ReferenceIndex, EmptyIndexFindsNothing) {
  ReferenceIndex index;
  EXPECT_EQ(index.lookup(PacketId{1, 1}), ReferenceIndex::kNoIndex);
  EXPECT_EQ(index.size(), 0u);
}

TEST(ReferenceIndex, CollisionChainsResolve) {
  // Force hash collisions: for a 4-packet trial the table capacity is
  // 16, so scan for ids landing in the same masked bucket and index
  // only those. Linear probing must still resolve every one.
  const std::size_t mask = 15;
  const std::size_t want_bucket = PacketIdHash{}(PacketId{7, 0}) & mask;
  Trial a;
  a.push_back(TrialPacket{PacketId{7, 0}, 0});
  for (std::uint64_t lo = 1; a.size() < 4 && lo < 100000; ++lo) {
    const PacketId id{7, lo};
    if ((PacketIdHash{}(id) & mask) == want_bucket) {
      a.push_back(TrialPacket{id, static_cast<Ns>(a.size()) * 100});
    }
  }
  ASSERT_EQ(a.size(), 4u);
  const ReferenceIndex index(a);
  for (std::uint32_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(index.lookup(a[j].id), j);
  }
  // A missing id hashing to the same crowded bucket walks the chain and
  // still reports absence.
  for (std::uint64_t lo = 100000; lo < 200000; ++lo) {
    const PacketId id{7, lo};
    if ((PacketIdHash{}(id) & mask) == want_bucket) {
      EXPECT_EQ(index.lookup(id), ReferenceIndex::kNoIndex);
      break;
    }
  }
}

TEST(ReferenceIndex, DuplicateIdThrows) {
  Trial a;
  a.push_back(TrialPacket{PacketId{1, 1}, 0});
  a.push_back(TrialPacket{PacketId{1, 2}, 100});
  a.push_back(TrialPacket{PacketId{1, 1}, 200});
  EXPECT_THROW(ReferenceIndex{a}, Error);
}

TEST(ReferenceIndex, FailedRebuildLeavesIndexEmpty) {
  Rng rng(14);
  const Trial good = random_trial(rng, 100, 0.0, 0);
  std::vector<TrialPacket> pkts = good.packets();
  pkts.push_back(pkts[40]);  // duplicate id at the end of the trial
  const Trial dup(std::move(pkts));
  ReferenceIndex index(good);
  EXPECT_THROW(index.rebuild(dup), Error);
  // A half-built index must not pass align_trials' shared-ref size check
  // or answer lookups.
  EXPECT_EQ(index.size(), 0u);
  for (const TrialPacket& p : dup.packets()) {
    EXPECT_EQ(index.lookup(p.id), ReferenceIndex::kNoIndex);
  }
  CompareScratch scratch;
  scratch.shared_ref = &index;
  EXPECT_THROW(align_trials(dup, good, scratch, &scratch.alignment), Error);
}

TEST(ReferenceIndex, RebuildReusesStorage) {
  Rng rng(12);
  const Trial big = random_trial(rng, 2000, 0.0, 0);
  const Trial small = random_trial(rng, 500, 0.0, 0);
  ReferenceIndex index;
  EXPECT_TRUE(index.rebuild(big));     // first build allocates
  EXPECT_FALSE(index.rebuild(small));  // fits in existing storage
  EXPECT_FALSE(index.rebuild(big));    // capacity was retained
  for (std::uint32_t j = 0; j < big.size(); ++j) {
    EXPECT_EQ(index.lookup(big[j].id), j);
  }
}

TEST(CompareScratch, DuplicateInBThrows) {
  Rng rng(13);
  const Trial a = random_trial(rng, 50, 0.0, 0);
  CompareScratch scratch;

  // Duplicate of an id that exists in A.
  Trial b1 = a;
  b1.push_back(TrialPacket{a[3].id, 99999});
  EXPECT_THROW(compare_trials(a, b1, {}, scratch), Error);

  // Duplicate of a B-only id (absent from A).
  Trial b2 = a;
  b2.push_back(TrialPacket{PacketId{9, 1}, 99999});
  b2.push_back(TrialPacket{PacketId{9, 1}, 99998});
  EXPECT_THROW(compare_trials(a, b2, {}, scratch), Error);

  // The scratch survives the throws and still compares correctly.
  const auto r = compare_trials(a, a, {}, scratch);
  EXPECT_EQ(r.metrics.kappa, 1.0);
}

TEST(CompareScratch, ReuseMatchesFreshScratch) {
  Rng rng(14);
  CompareScratch reused;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 100 + static_cast<std::size_t>(round) * 150;
    const Trial a = random_trial(rng, n, 0.0, 0);
    const Trial b = random_trial(rng, n, 12.0, n / 6, /*drops=*/3);
    CompareScratch fresh;
    expect_same_result(compare_trials(a, b, {}, fresh),
                       compare_trials(a, b, {}, reused));
  }
  EXPECT_EQ(reused.comparisons, 12u);
}

TEST(CompareScratch, MatchesAllocatingOverload) {
  Rng rng(15);
  CompareScratch scratch;
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 200 + static_cast<std::size_t>(round) * 300;
    const Trial a = random_trial(rng, n, 0.0, 0);
    const Trial b = random_trial(rng, n, 15.0, n / 4, /*drops=*/2);
    ComparisonOptions options;
    options.collect_series = (round % 2 == 0);
    options.collect_alignment = (round % 3 == 0);
    const auto plain = compare_trials(a, b, options);
    const auto arena = compare_trials(a, b, options, scratch);
    expect_same_result(plain, arena);
    ASSERT_EQ(plain.series.iat_delta_ns.size(),
              arena.series.iat_delta_ns.size());
    EXPECT_EQ(plain.series.iat_delta_ns, arena.series.iat_delta_ns);
    EXPECT_EQ(plain.series.latency_delta_ns, arena.series.latency_delta_ns);
    EXPECT_EQ(plain.series.move_distance, arena.series.move_distance);
    ASSERT_EQ(plain.alignment.matches.size(), arena.alignment.matches.size());
    EXPECT_EQ(plain.alignment.lcs_length, arena.alignment.lcs_length);
    EXPECT_EQ(plain.alignment.total_abs_displacement(),
              arena.alignment.total_abs_displacement());
  }
}

TEST(CompareScratch, SharedRefMatchesOwnRebuild) {
  Rng rng(16);
  const Trial a = random_trial(rng, 1500, 0.0, 0);
  const ReferenceIndex shared(a);
  CompareScratch with_shared;
  with_shared.shared_ref = &shared;
  CompareScratch own;
  for (int round = 0; round < 4; ++round) {
    const Trial b = random_trial(rng, 1500, 10.0, 200, /*drops=*/2);
    expect_same_result(compare_trials(a, b, {}, own),
                       compare_trials(a, b, {}, with_shared));
  }
}

TEST(CompareScratch, SharedRefSizeMismatchThrows) {
  Rng rng(17);
  const Trial a = random_trial(rng, 100, 0.0, 0);
  const Trial other = random_trial(rng, 50, 0.0, 0);
  const ReferenceIndex index(other);
  CompareScratch scratch;
  scratch.shared_ref = &index;
  EXPECT_THROW(compare_trials(a, a, {}, scratch), Error);
}

TEST(CompareScratch, SteadyStateDoesNotGrow) {
  // The zero-allocation contract: once the scratch has seen the working
  // size, further metrics-only comparisons never grow any buffer. Every
  // internal arena counts its growth events, so this is directly
  // observable without an allocator hook.
  Rng rng(18);
  const Trial a = random_trial(rng, 4096, 0.0, 0);
  CompareScratch scratch;
  compare_trials(a, random_trial(rng, 4096, 15.0, 512), {}, scratch);
  const std::uint64_t warm = scratch.total_grows();
  EXPECT_GT(warm, 0u);
  for (int round = 0; round < 10; ++round) {
    compare_trials(a, random_trial(rng, 4096, 15.0, 512, /*drops=*/1), {},
                   scratch);
  }
  EXPECT_EQ(scratch.total_grows(), warm);
  EXPECT_EQ(scratch.comparisons, 11u);
}

/// `b` with `extras` ids absent from A spread through it: a dense run
/// from a second sender when `tagged`, else random 128-bit ids.
Trial with_extras(Rng& rng, const Trial& b, std::size_t extras, bool tagged) {
  std::vector<TrialPacket> pkts = b.packets();
  for (std::size_t k = 0; k < extras; ++k) {
    const PacketId id = tagged ? PacketId{2, k}
                               : PacketId{rng.next_u64(), rng.next_u64()};
    const std::size_t at = rng.uniform_u64(pkts.size() + 1);
    pkts.insert(pkts.begin() + static_cast<std::ptrdiff_t>(at),
                TrialPacket{id, pkts.empty() ? 0 : pkts[at % pkts.size()].time});
  }
  return Trial(std::move(pkts));
}

TEST(CompareScratch, SteadyStateWithBOnlyIdsDoesNotGrow) {
  // B-only ids fill the kernel's B-only set. Its spill table is sized
  // from the share of them that spilled when its staging overflowed, so
  // the shapes below size it differently; once the scratch has seen each
  // shape, repeating them never grows it.
  Rng rng(20);
  const Trial a = random_trial(rng, 4096, 0.0, 0);
  CompareScratch scratch;
  std::uint64_t warm = 0;
  for (int round = 0; round < 6; ++round) {
    for (const bool tagged : {true, false}) {
      for (const std::size_t extras : {600, 300, 17}) {
        compare_trials(a, with_extras(rng, random_trial(rng, 4096, 15.0, 64),
                                      extras, tagged),
                       {}, scratch);
        if (!tagged && extras == 600) {
          EXPECT_EQ(scratch.b_only.spilled(), 600u);
        }
      }
    }
    if (round == 0) warm = scratch.total_grows();
  }
  EXPECT_EQ(scratch.total_grows(), warm);
}

TEST(CompareScratch, StoredDisplacementMatchesMoveSum) {
  Rng rng(19);
  const Trial a = random_trial(rng, 800, 0.0, 0);
  const Trial b = random_trial(rng, 800, 10.0, 300);
  ComparisonOptions options;
  options.collect_alignment = true;
  const auto r = compare_trials(a, b, options);
  double sum = 0.0;
  for (const Move& m : r.alignment.moves) {
    sum += static_cast<double>(m.displacement < 0 ? -m.displacement
                                                  : m.displacement);
  }
  // Integer-valued doubles, so the stored accessor is exactly the
  // re-summed value — not just close.
  EXPECT_EQ(r.alignment.total_abs_displacement(), sum);
  EXPECT_EQ(r.sum_abs_move_distance, sum);
}

// A workspace reused across inputs of every size returns what a fresh
// one returns.
TEST(LisWorkspace, MatchesAllocatingOverload) {
  Rng rng(20);
  LisScratch scratch;
  std::vector<std::uint32_t> out;  // reused like CompareScratch::lis_out
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_u64(3000));
    std::vector<std::uint32_t> values(n);
    for (auto& v : values) {
      v = static_cast<std::uint32_t>(rng.uniform_u64(n * 2));
    }
    LisScratch fresh;
    std::vector<std::uint32_t> plain;
    longest_increasing_subsequence(values, fresh, &plain);
    longest_increasing_subsequence(values, scratch, &out);
    EXPECT_EQ(plain, out);
    EXPECT_EQ(lis_length(values), plain.size());
  }
  const std::uint64_t warm = scratch.grows;
  const std::vector<std::uint32_t> small{3, 1, 2};
  longest_increasing_subsequence(small, scratch, &out);
  EXPECT_EQ(scratch.grows, warm);  // smaller input never grows a warm scratch
}

TEST(ScratchDeterminism, EvalJobsInvariant) {
  // Each experiment compares its runs on one kept scratch against run A's
  // ReferenceIndex. Two copies of one experiment side by side on pool
  // workers, as a bench row runs its configs, must agree bit for bit
  // (this also runs the scratch and index under TSan).
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.packets = 2000;
  cfg.runs = 5;
  cfg.seed = 77;
  cfg.collect_series = false;
  const auto runs = parallel_map_indexed<testbed::ExperimentResult>(
      2, 2, [&](std::size_t) { return testbed::run_experiment(cfg); });
  const auto& serial = runs[0];
  const auto& parallel = runs[1];
  ASSERT_EQ(serial.comparisons.size(), parallel.comparisons.size());
  for (std::size_t i = 0; i < serial.comparisons.size(); ++i) {
    expect_same_result(serial.comparisons[i], parallel.comparisons[i]);
  }
  EXPECT_EQ(serial.mean.kappa, parallel.mean.kappa);
}

}  // namespace
}  // namespace choir::core
