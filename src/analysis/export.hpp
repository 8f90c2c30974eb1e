// Machine-readable exports of experiment artifacts: CSV series for the
// figures and CSV tables for the metric summaries, so plots can be
// regenerated with any external tool (the paper's artifact produces
// matplotlib figures from equivalent files). Each renders the whole file
// to a string; choir::write_file (common/write_file.hpp) writes it.
#pragma once

#include <string>
#include <vector>

#include "analysis/histogram.hpp"
#include "core/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"

namespace choir::analysis {

/// Histogram as CSV: bin_lo,bin_hi,count,fraction (one row per bin,
/// including empty ones; open bins use +-inf).
std::string render_histogram_csv(const DeltaHistogram& histogram);

/// Metric rows as CSV: label,U,O,I,L,kappa.
struct MetricsRow {
  std::string label;
  core::ConsistencyMetrics metrics;
};
std::string render_metrics_csv(const std::vector<MetricsRow>& rows);

// --- Telemetry artifacts ------------------------------------------------

/// Counter/gauge time series as JSON Lines: one object per snapshot,
/// `{"t_ns":N,"counters":{...},"gauges":{...}}`, keys in sorted order.
std::string render_snapshots_jsonl(
    const std::vector<telemetry::Snapshot>& snapshots);

/// Every registry histogram as CSV:
/// name,count,min_ns,mean_ns,p50_ns,p90_ns,p99_ns,max_ns.
std::string render_histogram_summaries_csv(
    const telemetry::Registry& registry);

// --- Metric series artifacts (docs/SERIES.md) ---------------------------

/// Ring-buffer series as JSON Lines, one object per metric in sorted
/// name order:
/// {"name":"...","kind":"counter","interval_ns":N,"total":N,
///  "points":[[t_ns,value],...]}
/// Values print with %.17g; the output is byte-deterministic for a
/// deterministic run at any `--jobs` value.
std::string render_series_jsonl(const telemetry::SeriesSampler& sampler);

/// Prometheus text exposition of each series' latest point. Metric
/// names are sanitized to [a-zA-Z0-9_:] and prefixed `choir_`;
/// percentile series become gauges carrying a `quantile`-style suffix
/// already baked into the name (`..._p99`).
std::string render_prometheus_text(const telemetry::SeriesSampler& sampler);

/// Fixed-width terminal summary of every series: last/min/max plus an
/// ASCII sparkline over the retained window (`choirctl top`'s final
/// frame). `limit` caps the number of rows (0 = no cap).
std::string render_series_top(const telemetry::SeriesSampler& sampler,
                              std::size_t limit = 0);

}  // namespace choir::analysis
