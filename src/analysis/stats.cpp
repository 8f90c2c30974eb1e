#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/stats.hpp"

namespace choir::analysis {

namespace {
SummaryStats from_shared(const stats::Summary& s) {
  return SummaryStats{s.count, s.mean, s.stddev, s.min, s.max};
}
}  // namespace

SummaryStats summarize(std::span<const std::int64_t> values) {
  return from_shared(stats::summarize(
      values, [](std::int64_t v) { return static_cast<double>(v); }));
}

SummaryStats summarize_abs(std::span<const std::int64_t> values) {
  return from_shared(stats::summarize(values, [](std::int64_t v) {
    return std::abs(static_cast<double>(v));
  }));
}

double percentile(std::vector<double> values, double p) {
  CHOIR_EXPECT(!values.empty(), "percentile of empty set");
  CHOIR_EXPECT(p >= 0.0 && p <= 100.0, "percentile out of range");
  std::sort(values.begin(), values.end());
  return stats::percentile_sorted(values, p);
}

}  // namespace choir::analysis
