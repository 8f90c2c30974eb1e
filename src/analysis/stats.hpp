// Summary statistics helpers for experiment reporting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace choir::analysis {

struct SummaryStats {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double min = 0.0;
  double max = 0.0;
};

SummaryStats summarize(std::span<const std::int64_t> values);

/// Stats of |v| over the same values (Table 1's "Abs. Mean" column).
SummaryStats summarize_abs(std::span<const std::int64_t> values);

/// p in [0,100]; linear interpolation; input need not be sorted.
double percentile(std::vector<double> values, double p);

}  // namespace choir::analysis
