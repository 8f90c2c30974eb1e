// Drift detection over metric series: the soak-mode verdict layer.
//
// A long-running replay service (ROADMAP: `choird`) must distinguish
// "κ wobbles within its usual band" from "κ is monotonically decaying"
// and "a counter's per-interval rate just jumped". Both detectors are
// deterministic pure functions of the series they are handed:
//
//  - detect_monotone_drift(): a Mann-Kendall trend statistic
//    (sign-based, so robust to the non-Gaussian κ distribution)
//    combined with a first-half/second-half mean drop. A series is
//    DRIFTING only when the trend is strongly monotone *and* the level
//    actually moved by more than `min_drop` — a strict trend over a
//    nanoscopic range is noise, not drift.
//  - detect_rate_anomaly(): robust outlier test on per-interval rates —
//    any rate farther from the median than `iqr_gate` interquartile
//    ranges (plus an absolute floor for near-constant series) flags the
//    series. Counters are monotone, so their *rates* are the stationary
//    signal to test.
//
// `choirctl soak` feeds per-round window-κ series and per-round counter
// totals through analyze_drift() and exits by the report's verdict.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace choir::monitor {

struct DriftOptions {
  std::size_t min_points = 6;  ///< below this a series is kInsufficient
  /// |Mann-Kendall S| / (n(n-1)/2) at or above this counts as monotone.
  double trend_gate = 0.6;
  /// Minimum first-half-mean minus second-half-mean drop (absolute, in
  /// the series' own units) for a downward trend to count as drift.
  double min_drop = 1e-3;
  /// Rate anomaly: |rate - median| > iqr_gate * IQR (+ abs_floor).
  double iqr_gate = 5.0;
  double abs_floor = 1e-9;
};

enum class DriftStatus { kInsufficient, kStable, kDrifting };

const char* to_string(DriftStatus status);

struct DriftFinding {
  std::string series;
  DriftStatus status = DriftStatus::kInsufficient;
  std::size_t points = 0;
  double trend = 0.0;        ///< normalized Mann-Kendall S in [-1, 1]
  double first_half = 0.0;   ///< mean of the first half
  double second_half = 0.0;  ///< mean of the second half
  double anomaly = 0.0;      ///< rate test: max |rate - median| / IQR
  std::string detail;        ///< one human-readable line
};

struct DriftReport {
  std::vector<DriftFinding> findings;
  bool drifting() const;
  /// Findings with status kDrifting.
  std::size_t drifting_count() const;
};

/// Flag a monotone *downward* drift (the κ degradation direction) in a
/// level series such as per-window or per-round κ.
DriftFinding detect_monotone_drift(const std::string& name,
                                   std::span<const double> series,
                                   const DriftOptions& options = {});

/// Flag per-interval rate outliers in a series of *rates* (the caller
/// differences cumulative counters first).
DriftFinding detect_rate_anomaly(const std::string& name,
                                 std::span<const double> rates,
                                 const DriftOptions& options = {});

/// Fixed-width rendering of a report, drifting findings first.
std::string render_drift(const DriftReport& report);

}  // namespace choir::monitor
