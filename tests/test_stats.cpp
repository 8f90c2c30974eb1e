#include "analysis/stats.hpp"

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/stats.hpp"

namespace choir::analysis {
namespace {

/// The shared summary over plain doubles.
SummaryStats summarize_doubles(const std::vector<double>& values) {
  const stats::Summary s =
      stats::summarize(std::span<const double>(values), [](double v) {
        return v;
      });
  return SummaryStats{s.count, s.mean, s.stddev, s.min, s.max};
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const SummaryStats s = summarize_doubles(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, SummarizeEmpty) {
  const SummaryStats s = summarize_doubles({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SummarizeSingleValue) {
  const std::vector<double> v{42.0};
  const SummaryStats s = summarize_doubles(v);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(Stats, SummarizeInt64) {
  const std::vector<std::int64_t> v{-10, 0, 10};
  const SummaryStats s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, -10.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(Stats, SummarizeAbsMatchesTable1Semantics) {
  // Table 1 reports both signed Mean and Abs. Mean of move distances.
  const std::vector<std::int64_t> v{-5632, 16573, -100, 100};
  const SummaryStats signed_stats = summarize(v);
  const SummaryStats abs_stats = summarize_abs(v);
  EXPECT_NEAR(signed_stats.mean, (16573.0 - 5632.0) / 4.0, 1e-9);
  EXPECT_NEAR(abs_stats.mean, (5632.0 + 16573.0 + 200.0) / 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(abs_stats.min, 100.0);
  EXPECT_DOUBLE_EQ(abs_stats.max, 16573.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 12.5), 5.0);
}

TEST(Stats, P999Exactness) {
  // 1001 evenly spaced points 0..1000: the (n-1) rank grid puts p99.9
  // at rank 0.999 * 1000 = 999 -> value 999, and the mirrored low-tail
  // helper at rank 1 -> value 1. The tolerance absorbs only the
  // representation error of 99.9/100 (~1e-13 in the rank).
  std::vector<double> v(1001);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_NEAR(stats::p999_sorted(v), 999.0, 1e-9);
  EXPECT_NEAR(stats::p999_low_sorted(v), 1.0, 1e-9);
  // Degenerate sizes collapse to the envelope, never out of range.
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(stats::p999_sorted(one), 7.0);
  EXPECT_DOUBLE_EQ(stats::p999_low_sorted(one), 7.0);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::p999_sorted(two), 1.0 + 2.0 * 0.999);
  EXPECT_DOUBLE_EQ(stats::p999_low_sorted(two), 1.0 + 2.0 * 0.001);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> v{40, 0, 30, 10, 20};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 20.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50), Error);
  EXPECT_THROW(percentile({1.0}, 101), Error);
  EXPECT_THROW(percentile({1.0}, -1), Error);
}

}  // namespace
}  // namespace choir::analysis
