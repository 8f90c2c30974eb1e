#include "common/rng.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/expect.hpp"

#include <gtest/gtest.h>

namespace choir {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedResetsStream) {
  Rng a(7);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-5.0, 11.0);
    ASSERT_GE(u, -5.0);
    ASSERT_LT(u, 11.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64CoversRangeWithoutBias) {
  Rng rng(6);
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

TEST(Rng, UniformU64RejectsZero) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_u64(0), Error);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng(9);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(3.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(10);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.exponential(-1.0), Error);
}

TEST(Rng, LognormalMedian) {
  Rng rng(12);
  const int n = 100001;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.lognormal(std::log(500.0), 0.8);
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  // Median of lognormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(xs[n / 2], 500.0, 25.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(14);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(15), p2(15);
  Rng a = p1.split(9);
  Rng b = p2.split(9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, Splitmix64KnownValue) {
  // Reference value from the splitmix64 reference implementation.
  std::uint64_t state = 0;
  const std::uint64_t v = splitmix64(state);
  EXPECT_EQ(state, 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(v, 0xe220a8397b1dcdafULL);
}

TEST(Rng, NoShortCycles) {
  Rng rng(16);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(seen.insert(rng.next_u64()).second) << "cycle at " << i;
  }
}

}  // namespace
}  // namespace choir
