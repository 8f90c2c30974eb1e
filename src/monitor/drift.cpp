#include "monitor/drift.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stats.hpp"

namespace choir::monitor {

namespace {

double mean_of(std::span<const double> values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Normalized Mann-Kendall statistic: sum of sign(x_j - x_i) over all
/// i < j pairs, divided by the pair count. -1 = strictly decreasing,
/// +1 = strictly increasing. O(n^2) on soak-sized series (hundreds of
/// points), which is nothing next to the runs that produced them.
double mann_kendall(std::span<const double> series) {
  const std::size_t n = series.size();
  if (n < 2) return 0.0;
  std::int64_t s = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (series[j] > series[i]) ++s;
      if (series[j] < series[i]) --s;
    }
  }
  const double pairs = static_cast<double>(n) *
                       static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(s) / pairs;
}

}  // namespace

const char* to_string(DriftStatus status) {
  switch (status) {
    case DriftStatus::kInsufficient:
      return "insufficient";
    case DriftStatus::kStable:
      return "stable";
    case DriftStatus::kDrifting:
      return "DRIFTING";
  }
  return "unknown";
}

bool DriftReport::drifting() const { return drifting_count() > 0; }

std::size_t DriftReport::drifting_count() const {
  std::size_t n = 0;
  for (const DriftFinding& f : findings) {
    if (f.status == DriftStatus::kDrifting) ++n;
  }
  return n;
}

DriftFinding detect_monotone_drift(const std::string& name,
                                   std::span<const double> series,
                                   const DriftOptions& options) {
  DriftFinding f;
  f.series = name;
  f.points = series.size();
  if (series.size() < options.min_points) {
    f.status = DriftStatus::kInsufficient;
    f.detail = "only " + std::to_string(series.size()) + " points (need " +
               std::to_string(options.min_points) + ")";
    return f;
  }
  f.trend = mann_kendall(series);
  const std::size_t half = series.size() / 2;
  f.first_half = mean_of(series.subspan(0, half));
  f.second_half = mean_of(series.subspan(half));
  const double drop = f.first_half - f.second_half;
  const bool monotone_down = f.trend <= -options.trend_gate;
  f.status = monotone_down && drop >= options.min_drop
                 ? DriftStatus::kDrifting
                 : DriftStatus::kStable;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trend %+.3f, halves %.6g -> %.6g (drop %.3g)", f.trend,
                f.first_half, f.second_half, drop);
  f.detail = buf;
  return f;
}

DriftFinding detect_rate_anomaly(const std::string& name,
                                 std::span<const double> rates,
                                 const DriftOptions& options) {
  DriftFinding f;
  f.series = name;
  f.points = rates.size();
  if (rates.size() < options.min_points) {
    f.status = DriftStatus::kInsufficient;
    f.detail = "only " + std::to_string(rates.size()) + " rates (need " +
               std::to_string(options.min_points) + ")";
    return f;
  }
  std::vector<double> sorted(rates.begin(), rates.end());
  std::sort(sorted.begin(), sorted.end());
  const double median = stats::percentile_sorted(sorted, 50.0);
  const double iqr = stats::percentile_sorted(sorted, 75.0) -
                     stats::percentile_sorted(sorted, 25.0);
  const double band = options.iqr_gate * iqr + options.abs_floor;
  double worst = 0.0;
  for (const double r : rates) {
    worst = std::max(worst, std::abs(r - median));
  }
  f.anomaly = iqr > 0.0 ? worst / iqr : (worst > 0.0 ? HUGE_VAL : 0.0);
  f.status =
      worst > band ? DriftStatus::kDrifting : DriftStatus::kStable;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "median rate %.6g, IQR %.3g, max deviation %.3g", median,
                iqr, worst);
  f.detail = buf;
  return f;
}

std::string render_drift(const DriftReport& report) {
  std::string out;
  char line[320];
  const auto emit = [&](const DriftFinding& f) {
    std::snprintf(line, sizeof(line), "%-12s %-40s %4zu pts  %s\n",
                  to_string(f.status), f.series.c_str(), f.points,
                  f.detail.c_str());
    out += line;
  };
  for (const DriftFinding& f : report.findings) {
    if (f.status == DriftStatus::kDrifting) emit(f);
  }
  for (const DriftFinding& f : report.findings) {
    if (f.status != DriftStatus::kDrifting) emit(f);
  }
  std::snprintf(line, sizeof(line),
                "drift verdict: %zu drifting of %zu series\n",
                report.drifting_count(), report.findings.size());
  out += line;
  return out;
}

}  // namespace choir::monitor
