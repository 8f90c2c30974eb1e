#include "analysis/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/json.hpp"

namespace choir::analysis {

namespace {
std::string edge_repr(double edge) {
  if (std::isinf(edge)) return edge < 0 ? "-inf" : "inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", edge);
  return buf;
}
}  // namespace

std::string render_histogram_csv(const DeltaHistogram& histogram) {
  std::ostringstream out;
  out << "bin_lo_ns,bin_hi_ns,count,fraction\n";
  for (std::size_t i = 0; i < histogram.bins().size(); ++i) {
    const auto& bin = histogram.bins()[i];
    out << edge_repr(bin.lo) << ',' << edge_repr(bin.hi) << ',' << bin.count
        << ',' << histogram.fraction(i) << '\n';
  }
  return out.str();
}

std::string render_metrics_csv(const std::vector<MetricsRow>& rows) {
  std::ostringstream out;
  out << "label,U,O,I,L,kappa\n";
  for (const MetricsRow& row : rows) {
    out << row.label << ',' << row.metrics.uniqueness << ','
        << row.metrics.ordering << ',' << row.metrics.iat << ','
        << row.metrics.latency << ',' << row.metrics.kappa << '\n';
  }
  return out.str();
}

std::string render_snapshots_jsonl(
    const std::vector<telemetry::Snapshot>& snapshots) {
  std::ostringstream out;
  for (const telemetry::Snapshot& s : snapshots) {
    out << "{\"t_ns\":" << s.at << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : s.counters) {
      if (!first) out << ',';
      first = false;
      out << '"' << json::escape(name) << "\":" << value;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : s.gauges) {
      if (!first) out << ',';
      first = false;
      out << '"' << json::escape(name) << "\":" << value;
    }
    out << "}}\n";
  }
  return out.str();
}

std::string render_histogram_summaries_csv(
    const telemetry::Registry& registry) {
  std::ostringstream out;
  out << "name,count,min_ns,mean_ns,p50_ns,p90_ns,p99_ns,max_ns\n";
  for (const auto& [name, histogram] : registry.histograms()) {
    const auto s = histogram.summary();
    out << name << ',' << s.count << ',' << s.min << ',' << s.mean << ','
        << s.p50 << ',' << s.p90 << ',' << s.p99 << ',' << s.max << '\n';
  }
  return out.str();
}

std::string render_series_jsonl(const telemetry::SeriesSampler& sampler) {
  std::string out;
  for (const auto& [name, entry] : sampler.entries()) {
    out += "{\"name\":\"" + json::escape(name) + "\",\"kind\":\"";
    out += telemetry::to_string(entry.kind);
    out += "\",\"interval_ns\":" + std::to_string(sampler.interval());
    out += ",\"total\":" + std::to_string(entry.series.total());
    out += ",\"points\":[";
    for (std::size_t i = 0; i < entry.series.size(); ++i) {
      const telemetry::SeriesPoint& p = entry.series.at(i);
      if (i > 0) out += ',';
      out += '[' + std::to_string(p.t) + ',' + json::number_repr(p.value) +
             ']';
    }
    out += "]}\n";
  }
  return out;
}

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
/// maps to '_'. The choir_ prefix guarantees a legal first character.
std::string prometheus_name(const std::string& name) {
  std::string out = "choir_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string render_prometheus_text(const telemetry::SeriesSampler& sampler) {
  std::string out;
  for (const auto& [name, entry] : sampler.entries()) {
    if (entry.series.empty()) continue;
    const std::string prom = prometheus_name(name);
    const bool counter = entry.kind == telemetry::SeriesKind::kCounter;
    out += "# TYPE " + prom + (counter ? " counter\n" : " gauge\n");
    out += prom + ' ' + json::number_repr(entry.series.back().value) + '\n';
  }
  return out;
}

std::string render_series_top(const telemetry::SeriesSampler& sampler,
                              std::size_t limit) {
  // Sparkline glyphs from quiet to loud; values are normalized into the
  // series' own [min, max] envelope.
  static constexpr char kRamp[] = " .:-=+*#%@";
  static constexpr std::size_t kRampMax = sizeof(kRamp) - 2;
  static constexpr std::size_t kSpark = 32;
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %-10s %12s %12s %12s  %s\n",
                "series", "kind", "last", "min", "max", "spark");
  out += line;
  std::size_t rows = 0;
  for (const auto& [name, entry] : sampler.entries()) {
    if (limit > 0 && rows >= limit) {
      std::snprintf(line, sizeof(line), "  ... %zu more series\n",
                    sampler.entries().size() - rows);
      out += line;
      break;
    }
    ++rows;
    const std::size_t n = entry.series.size();
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = entry.series.at(i).value;
      if (i == 0 || v < lo) lo = v;
      if (i == 0 || v > hi) hi = v;
    }
    char spark[kSpark + 1] = {};
    const std::size_t cols = std::min(n, kSpark);
    for (std::size_t c = 0; c < cols; ++c) {
      // Each column shows the last value of its share of the window.
      const std::size_t i = (c + 1) * n / cols - 1;
      const double v = entry.series.at(i).value;
      const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.0;
      spark[c] = kRamp[static_cast<std::size_t>(norm * kRampMax + 0.5)];
    }
    std::snprintf(line, sizeof(line), "%-44s %-10s %12.6g %12.6g %12.6g  %s\n",
                  name.c_str(), telemetry::to_string(entry.kind),
                  n > 0 ? entry.series.back().value : 0.0, lo, hi, spark);
    out += line;
  }
  return out;
}

}  // namespace choir::analysis
