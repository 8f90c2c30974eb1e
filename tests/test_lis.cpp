#include "core/lis.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace choir::core {
namespace {

// Brute-force LIS length in O(n^2) for cross-checking.
std::size_t lis_brute(const std::vector<std::uint32_t>& v) {
  if (v.empty()) return 0;
  std::vector<std::size_t> best(v.size(), 1);
  std::size_t answer = 1;
  for (std::size_t i = 1; i < v.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (v[j] < v[i]) best[i] = std::max(best[i], best[j] + 1);
    }
    answer = std::max(answer, best[i]);
  }
  return answer;
}

// The patience loop as it was before the in-order fast path: every value
// goes through std::lower_bound over the pile tails. Kept as the
// position-for-position oracle for longest_increasing_subsequence.
std::vector<std::uint32_t> lis_oracle(const std::vector<std::uint32_t>& v) {
  std::vector<std::uint32_t> tail_vals, tail_pos, parent(v.size());
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    const std::size_t pile = static_cast<std::size_t>(
        std::lower_bound(tail_vals.begin(), tail_vals.end(), v[i]) -
        tail_vals.begin());
    parent[i] = pile > 0 ? tail_pos[pile - 1] : UINT32_MAX;
    if (pile == tail_vals.size()) {
      tail_vals.push_back(v[i]);
      tail_pos.push_back(i);
    } else {
      tail_vals[pile] = v[i];
      tail_pos[pile] = i;
    }
  }
  std::vector<std::uint32_t> out(tail_pos.size());
  if (out.empty()) return out;
  std::uint32_t cur = tail_pos.back();
  for (std::size_t k = out.size(); k-- > 0;) {
    out[k] = cur;
    cur = parent[cur];
  }
  return out;
}

bool is_valid_increasing_subsequence(const std::vector<std::uint32_t>& v,
                                     const std::vector<std::uint32_t>& pos) {
  for (std::size_t k = 1; k < pos.size(); ++k) {
    if (pos[k] <= pos[k - 1]) return false;
    if (v[pos[k]] <= v[pos[k - 1]]) return false;
  }
  return true;
}

TEST(Lis, EmptyInput) {
  EXPECT_TRUE(
      longest_increasing_subsequence(std::vector<std::uint32_t>{}).empty());
  EXPECT_EQ(lis_length(std::vector<std::uint32_t>{}), 0u);
}

TEST(Lis, SingleElement) {
  const auto r = longest_increasing_subsequence(std::vector<std::uint32_t>{42});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 0u);
}

TEST(Lis, AlreadySorted) {
  const std::vector<std::uint32_t> v{1, 2, 3, 4, 5};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 5u);
}

TEST(Lis, ReversedGivesLengthOne) {
  const std::vector<std::uint32_t> v{5, 4, 3, 2, 1};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 1u);
}

TEST(Lis, ClassicExample) {
  const std::vector<std::uint32_t> v{10, 9, 2, 5, 3, 7, 101, 18};
  const auto r = longest_increasing_subsequence(v);
  EXPECT_EQ(r.size(), 4u);  // e.g. 2, 3, 7, 18
  EXPECT_TRUE(is_valid_increasing_subsequence(v, r));
}

TEST(Lis, StrictlyIncreasingRejectsEqualRuns) {
  const std::vector<std::uint32_t> v{3, 3, 3, 3};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 1u);
}

TEST(Lis, SwappedNeighborPair) {
  // A permutation with one adjacent swap keeps n-1 in order.
  const std::vector<std::uint32_t> v{0, 2, 1, 3, 4};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 4u);
}

TEST(Lis, LengthHelperMatchesRecovery) {
  Rng rng(100);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> v(200);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.uniform_u64(500));
    EXPECT_EQ(lis_length(v), longest_increasing_subsequence(v).size());
  }
}

struct LisRandomCase {
  std::uint64_t seed;
  std::size_t n;
  std::uint64_t value_range;
};

class LisRandomTest : public ::testing::TestWithParam<LisRandomCase> {};

TEST_P(LisRandomTest, MatchesBruteForceAndIsValid) {
  const auto param = GetParam();
  Rng rng(param.seed);
  std::vector<std::uint32_t> v(param.n);
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(rng.uniform_u64(param.value_range));
  }
  const auto r = longest_increasing_subsequence(v);
  EXPECT_EQ(r.size(), lis_brute(v));
  EXPECT_TRUE(is_valid_increasing_subsequence(v, r));
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, LisRandomTest,
    ::testing::Values(LisRandomCase{1, 10, 10}, LisRandomCase{2, 10, 100},
                      LisRandomCase{3, 50, 8}, LisRandomCase{4, 50, 50},
                      LisRandomCase{5, 100, 1000}, LisRandomCase{6, 200, 20},
                      LisRandomCase{7, 200, 200000}, LisRandomCase{8, 333, 2},
                      LisRandomCase{9, 500, 500}, LisRandomCase{10, 64, 64}));

TEST(Lis, PermutationIdentityRecovery) {
  // For a permutation shifted by a rotation, LIS = n - shift.
  const std::size_t n = 1000, shift = 137;
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint32_t>((i + shift) % n);
  }
  EXPECT_EQ(longest_increasing_subsequence(v).size(), n - shift);
}

TEST(Lis, LargeInputFast) {
  // O(n log n): 200k elements should be near-instant.
  Rng rng(11);
  std::vector<std::uint32_t> v(200000);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_u64());
  const auto r = longest_increasing_subsequence(v);
  EXPECT_GT(r.size(), 500u);  // ~2*sqrt(n) expected
  EXPECT_TRUE(is_valid_increasing_subsequence(v, r));
}

/// Seeded input made of segments: long ascending runs (the in-order
/// fast path), plateaus of one value, descending runs and random values,
/// with the value base wandering so runs overlap earlier piles.
std::vector<std::uint32_t> segmented_input(std::uint64_t seed,
                                           std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint32_t> v;
  v.reserve(n);
  while (v.size() < n) {
    const std::size_t len =
        std::min<std::size_t>(n - v.size(), 1 + rng.uniform_u64(300));
    auto base = static_cast<std::uint32_t>(rng.uniform_u64(1u << 20));
    switch (rng.uniform_u64(4)) {
      case 0:  // ascending run with small gaps
        for (std::size_t k = 0; k < len; ++k) {
          base += static_cast<std::uint32_t>(1 + rng.uniform_u64(3));
          v.push_back(base);
        }
        break;
      case 1:  // plateau
        for (std::size_t k = 0; k < len; ++k) v.push_back(base);
        break;
      case 2:  // descending run
        for (std::size_t k = 0; k < len; ++k) {
          v.push_back(base);
          base -= std::min<std::uint32_t>(
              base, static_cast<std::uint32_t>(1 + rng.uniform_u64(3)));
        }
        break;
      default:  // random values
        for (std::size_t k = 0; k < len; ++k) {
          v.push_back(static_cast<std::uint32_t>(rng.uniform_u64(1u << 20)));
        }
        break;
    }
  }
  return v;
}

void expect_matches_oracle(const std::vector<std::uint32_t>& v) {
  const std::vector<std::uint32_t> expected = lis_oracle(v);
  EXPECT_EQ(longest_increasing_subsequence(v), expected);
  LisScratch scratch;
  std::vector<std::uint32_t> out;
  longest_increasing_subsequence(v, scratch, &out);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(lis_length(v), expected.size());
}

TEST(Lis, OracleTinyInputs) {
  expect_matches_oracle({});
  expect_matches_oracle({7});
  for (const std::uint32_t a : {0u, 1u, 2u}) {
    for (const std::uint32_t b : {0u, 1u, 2u}) expect_matches_oracle({a, b});
  }
}

TEST(Lis, OracleSegmentedInputs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    expect_matches_oracle(segmented_input(seed, 64 + seed * 97));
  }
}

TEST(Lis, OracleRandomPermutations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<std::uint32_t> v(1 + seed * 53);
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = i;
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.uniform_u64(i)]);
    }
    expect_matches_oracle(v);
  }
}

TEST(Lis, OracleNearOrderedCapture) {
  // The shape a replay produces: the identity with sparse local swaps
  // and a few packets displaced far.
  Rng rng(23);
  std::vector<std::uint32_t> v(20000);
  for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = i;
  for (int k = 0; k < 200; ++k) {
    const std::size_t i = rng.uniform_u64(v.size() - 1);
    std::swap(v[i], v[i + 1]);
  }
  for (int k = 0; k < 20; ++k) {
    std::swap(v[rng.uniform_u64(v.size())], v[rng.uniform_u64(v.size())]);
  }
  expect_matches_oracle(v);
}

}  // namespace
}  // namespace choir::core
