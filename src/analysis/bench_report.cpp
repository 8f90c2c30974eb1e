#include "analysis/bench_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/expect.hpp"
#include "common/stats.hpp"

namespace choir::analysis {

namespace {

void write_metrics_object(json::Writer& w, const core::ConsistencyMetrics& m) {
  w.begin_object();
  w.key("U");
  w.number(m.uniqueness);
  w.key("O");
  w.number(m.ordering);
  w.key("I");
  w.number(m.iat);
  w.key("L");
  w.number(m.latency);
  w.key("kappa");
  w.number(m.kappa);
  w.end_object();
}

void write_case(json::Writer& w, const BenchCase& c) {
  w.begin_object();
  w.key("env");
  w.string(c.env);
  w.key("seed");
  w.number(c.seed);
  w.key("packets");
  w.number(c.packets);
  w.key("runs");
  w.number(static_cast<std::int64_t>(c.runs));
  w.key("rate_gbps");
  w.number(c.rate_gbps);
  w.key("frame_bytes");
  w.number(static_cast<std::uint64_t>(c.frame_bytes));
  w.key("replayers");
  w.number(static_cast<std::int64_t>(c.replayers));
  w.key("sim");
  w.begin_object();
  w.key("throughput_gbps");
  w.number(c.throughput_gbps);
  w.key("throughput_mpps");
  w.number(c.throughput_mpps);
  w.key("trial_ms");
  w.number(c.trial_ms);
  w.key("recorded_packets");
  w.number(c.recorded_packets);
  w.key("recorder_rx_drops");
  w.number(c.recorder_rx_drops);
  w.key("replay_tx_drops");
  w.number(c.replay_tx_drops);
  w.key("mean");
  write_metrics_object(w, c.mean);
  w.key("runs");
  w.begin_array();
  for (const auto& row : c.run_rows) {
    w.begin_object();
    w.key("label");
    w.string(row.label);
    w.key("U");
    w.number(row.metrics.uniqueness);
    w.key("O");
    w.number(row.metrics.ordering);
    w.key("I");
    w.number(row.metrics.iat);
    w.key("L");
    w.number(row.metrics.latency);
    w.key("kappa");
    w.number(row.metrics.kappa);
    w.key("iat_within_10ns");
    w.number(row.iat_within_10ns);
    w.key("capture_size");
    w.number(row.capture_size);
    w.end_object();
  }
  w.end_array();
  w.end_object();  // sim
  if (!c.counters.empty()) {
    auto sorted = c.counters;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : sorted) {
      w.key(name);
      w.number(value);
    }
    w.end_object();
  }
  w.end_object();  // case
}

void write_host(json::Writer& w, const BenchHost& h) {
  w.begin_object();
  w.key("hostname");
  w.string(h.hostname);
  w.key("compiler");
  w.string(h.compiler);
  w.key("hardware_threads");
  w.number(static_cast<std::uint64_t>(h.hardware_threads));
  w.key("wall_ms");
  w.number(h.wall_ms);
  w.key("stages");
  w.begin_array();
  for (const auto& s : h.stages) {
    w.begin_object();
    w.key("name");
    w.string(s.name);
    w.key("count");
    w.number(s.count);
    w.key("total_ns");
    w.number(s.total_ns);
    w.key("self_ns");
    w.number(s.self_ns);
    w.key("self_ns_per_packet");
    w.number(s.self_ns_per_packet);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// Path element for a flattened metric. Arrays of objects are keyed by
/// their "env"/"label"/"name" member when present so paths stay stable
/// as rows are appended; bare arrays fall back to indices.
std::string element_key(const json::Value& element, std::size_t index) {
  if (element.is_object()) {
    for (const char* id : {"env", "label", "name"}) {
      if (const json::Value* v = element.find(id); v && v->is_string()) {
        return v->string_value;
      }
    }
  }
  return std::to_string(index);
}

void flatten_into(const json::Value& v, const std::string& prefix,
                  std::vector<std::pair<std::string, double>>& out) {
  switch (v.kind) {
    case json::Value::Kind::kNumber:
      out.emplace_back(prefix, v.number_value);
      break;
    case json::Value::Kind::kObject:
      for (const auto& [name, member] : v.object) {
        flatten_into(member, prefix.empty() ? name : prefix + "." + name, out);
      }
      break;
    case json::Value::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        flatten_into(v.array[i], prefix + "." + element_key(v.array[i], i),
                     out);
      }
      break;
    default:
      break;  // strings/bools/nulls are identity, not metrics
  }
}

bool is_host_path(const std::string& path) {
  // The "host" section flattens to host.*; free-form host scalars under
  // "metrics" carry a host. segment (metrics.host.wall_ms). Either way,
  // a host component anywhere marks the metric report-only.
  return path.rfind("host.", 0) == 0 ||
         path.find(".host.") != std::string::npos;
}

const char* status_name(DiffStatus s) {
  switch (s) {
    case DiffStatus::kOk:
      return "ok";
    case DiffStatus::kRegressed:
      return "REGRESSED";
    case DiffStatus::kMissing:
      return "MISSING";
    case DiffStatus::kAdded:
      return "new";
    case DiffStatus::kHostOnly:
      return "host";
  }
  return "?";
}

}  // namespace

std::string to_json(const BenchReport& report) {
  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.number(std::int64_t{1});
  w.key("name");
  w.string(report.name);
  if (!report.suite.empty()) {
    w.key("suite");
    w.string(report.suite);
  }
  w.key("scale");
  w.begin_object();
  w.key("packets");
  w.number(report.scale_packets);
  w.key("choir_full");
  w.boolean(report.choir_full);
  w.key("choir_scale");
  if (report.has_choir_scale) {
    w.number(report.choir_scale);
  } else {
    w.null();
  }
  w.end_object();
  w.key("cases");
  w.begin_array();
  for (const auto& c : report.cases) write_case(w, c);
  w.end_array();
  if (!report.metrics.empty()) {
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : report.metrics) {
      w.key(name);
      w.number(value);
    }
    w.end_object();
  }
  if (report.include_host) {
    w.key("host");
    write_host(w, report.host);
  }
  w.end_object();
  return w.str() + "\n";
}

std::vector<std::pair<std::string, double>> flatten_metrics(
    const json::Value& report) {
  std::vector<std::pair<std::string, double>> out;
  flatten_into(report, "", out);
  return out;
}

CompareResult compare_reports(const json::Value& baseline,
                              const json::Value& current,
                              const CompareOptions& options) {
  const auto base_metrics = flatten_metrics(baseline);
  const auto cur_metrics = flatten_metrics(current);
  std::map<std::string, double> cur_by_path(cur_metrics.begin(),
                                            cur_metrics.end());

  CompareResult result;
  // Baseline drives the comparison set, in baseline file order.
  for (const auto& [path, base_value] : base_metrics) {
    MetricDiff d;
    d.path = path;
    d.baseline = base_value;
    const auto it = cur_by_path.find(path);
    if (it == cur_by_path.end()) {
      // A metric that existed in the baseline vanished: the bench lost
      // coverage (or renamed a field without refreshing baselines).
      // Host metrics get a pass — they are only present when the
      // baseline was captured with CHOIR_BENCH_HOST_TIME=1.
      d.status = is_host_path(path) ? DiffStatus::kHostOnly
                                    : DiffStatus::kMissing;
      if (d.status == DiffStatus::kMissing) ++result.regressions;
      result.diffs.push_back(std::move(d));
      continue;
    }
    d.current = it->second;
    cur_by_path.erase(it);
    const double abs_delta = std::abs(d.current - d.baseline);
    const double denom = std::max(std::abs(d.baseline), 1e-300);
    d.delta_pct = 100.0 * abs_delta / denom;
    if (is_host_path(path)) {
      d.status = DiffStatus::kHostOnly;
    } else {
      const double band = std::max(
          options.near_zero_abs,
          std::abs(d.baseline) * options.sim_tolerance_pct / 100.0);
      if (abs_delta <= band) {
        d.status = DiffStatus::kOk;
      } else {
        d.status = DiffStatus::kRegressed;
        ++result.regressions;
      }
    }
    result.diffs.push_back(std::move(d));
  }
  // Whatever remains in `current` is new coverage: report, never fail.
  for (const auto& [path, value] : cur_by_path) {
    MetricDiff d;
    d.path = path;
    d.current = value;
    d.status = DiffStatus::kAdded;
    ++result.added;
    result.diffs.push_back(std::move(d));
  }
  return result;
}

std::string render_compare(const CompareResult& result) {
  std::string out;
  char line[512];
  auto emit = [&](const MetricDiff& d) {
    if (d.status == DiffStatus::kMissing) {
      std::snprintf(line, sizeof(line), "  %-10s %-52s baseline=%.6g\n",
                    status_name(d.status), d.path.c_str(), d.baseline);
    } else if (d.status == DiffStatus::kAdded) {
      std::snprintf(line, sizeof(line), "  %-10s %-52s current=%.6g\n",
                    status_name(d.status), d.path.c_str(), d.current);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-10s %-52s base=%.6g cur=%.6g (%.4f%%)\n",
                    status_name(d.status), d.path.c_str(), d.baseline,
                    d.current, d.delta_pct);
    }
    out += line;
  };
  // Regressions first so the verdict is at the top of the log; then new
  // metrics, then host-only deltas. In-tolerance rows are summarized.
  std::size_t ok_count = 0;
  for (const auto& d : result.diffs) {
    if (d.status == DiffStatus::kRegressed || d.status == DiffStatus::kMissing)
      emit(d);
  }
  for (const auto& d : result.diffs) {
    if (d.status == DiffStatus::kAdded) emit(d);
  }
  for (const auto& d : result.diffs) {
    if (d.status == DiffStatus::kHostOnly) emit(d);
  }
  for (const auto& d : result.diffs) {
    if (d.status == DiffStatus::kOk) ++ok_count;
  }
  std::snprintf(line, sizeof(line),
                "  %zu metric(s) within tolerance, %zu regression(s), %zu "
                "new\n",
                ok_count, result.regressions, result.added);
  out += line;
  return out;
}

int compare_bench_dirs(const std::string& baseline_dir,
                       const std::string& current_dir, double tolerance_pct,
                       std::string* out_text) {
  namespace fs = std::filesystem;
  CHOIR_EXPECT(fs::is_directory(baseline_dir),
               "baseline directory not found: " + baseline_dir);
  CompareOptions options;
  if (tolerance_pct >= 0.0) options.sim_tolerance_pct = tolerance_pct;

  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(baseline_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  CHOIR_EXPECT(!files.empty(),
               "no BENCH_*.json files in baseline: " + baseline_dir);

  auto read_report = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    CHOIR_EXPECT(in.good(), "cannot open: " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return json::parse(buf.str());
  };
  int regressions = 0;
  for (const std::string& file : files) {
    const fs::path current_path = fs::path(current_dir) / file;
    *out_text += "== " + file + " ==\n";
    if (!fs::exists(current_path)) {
      *out_text += "  MISSING: no current result for this baseline\n";
      ++regressions;
      continue;
    }
    const auto result =
        compare_reports(read_report(fs::path(baseline_dir) / file),
                        read_report(current_path), options);
    *out_text += render_compare(result);
    regressions += static_cast<int>(result.regressions);
  }
  return regressions;
}

// --- Statistical (multi-repetition) verdicts ----------------------------

const char* to_string(StatStatus status) {
  switch (status) {
    case StatStatus::kStable:
      return "stable";
    case StatStatus::kUnstable:
      return "UNSTABLE";
    case StatStatus::kRegressed:
      return "REGRESSED";
    case StatStatus::kImproved:
      return "improved";
    case StatStatus::kNoBaseline:
      return "no-baseline";
  }
  return "unknown";
}

StatResult statistical_verdicts(
    const std::vector<StatSample>& samples,
    const std::vector<std::pair<std::string, double>>& baseline,
    const StatOptions& options) {
  std::map<std::string, double> base;
  for (const auto& [path, median] : baseline) base[path] = median;

  StatResult result;
  for (const StatSample& sample : samples) {
    StatVerdict v;
    v.path = sample.path;
    v.reps = sample.values.size();
    if (!sample.values.empty()) {
      std::vector<double> sorted = sample.values;
      std::sort(sorted.begin(), sorted.end());
      v.p25 = stats::percentile_sorted(sorted, 25.0);
      v.median = stats::percentile_sorted(sorted, 50.0);
      v.p75 = stats::percentile_sorted(sorted, 75.0);
      const double denom = std::max(std::abs(v.median), 1e-12);
      v.spread_pct = 100.0 * (v.p75 - v.p25) / denom;
    }
    const auto it = base.find(sample.path);
    v.has_baseline = it != base.end();
    if (v.has_baseline) {
      v.baseline_median = it->second;
      const double denom = std::max(std::abs(v.baseline_median), 1e-12);
      v.delta_pct = 100.0 * (v.median - v.baseline_median) / denom;
    }

    // Verdict ladder: too few reps or too much spread -> kUnstable
    // (never gated — an untrustworthy number cannot prove a
    // regression); then the median-vs-baseline band.
    if (v.reps < options.min_reps || v.spread_pct > options.spread_gate_pct) {
      v.status = StatStatus::kUnstable;
      ++result.unstable;
    } else if (!v.has_baseline) {
      v.status = StatStatus::kNoBaseline;
    } else {
      const double worse =
          options.higher_is_better ? -v.delta_pct : v.delta_pct;
      if (worse > options.regress_pct) {
        v.status = StatStatus::kRegressed;
        ++result.regressions;
      } else if (-worse > options.regress_pct) {
        v.status = StatStatus::kImproved;
      } else {
        v.status = StatStatus::kStable;
      }
    }
    result.verdicts.push_back(std::move(v));
  }
  return result;
}

std::string render_stat_verdicts(const StatResult& result) {
  std::string out;
  char line[320];
  const auto emit = [&](const StatVerdict& v) {
    if (v.has_baseline) {
      std::snprintf(line, sizeof(line),
                    "  %-11s %-44s %2zu reps  p25/p50/p75 %.4g/%.4g/%.4g  "
                    "spread %5.1f%%  vs baseline %.4g (%+.1f%%)\n",
                    to_string(v.status), v.path.c_str(), v.reps, v.p25,
                    v.median, v.p75, v.spread_pct, v.baseline_median,
                    v.delta_pct);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-11s %-44s %2zu reps  p25/p50/p75 %.4g/%.4g/%.4g  "
                    "spread %5.1f%%\n",
                    to_string(v.status), v.path.c_str(), v.reps, v.p25,
                    v.median, v.p75, v.spread_pct);
    }
    out += line;
  };
  for (const StatVerdict& v : result.verdicts) {
    if (v.status == StatStatus::kRegressed) emit(v);
  }
  for (const StatVerdict& v : result.verdicts) {
    if (v.status != StatStatus::kRegressed) emit(v);
  }
  std::snprintf(line, sizeof(line),
                "  statistical verdicts: %zu metric(s), %zu regressed, %zu "
                "unstable\n",
                result.verdicts.size(), result.regressions, result.unstable);
  out += line;
  return out;
}

std::string stat_baseline_to_json(const StatResult& result) {
  // Medians only, sorted by path — the file a future run gates against.
  std::map<std::string, double> medians;
  for (const StatVerdict& v : result.verdicts) medians[v.path] = v.median;
  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.number(1.0);
  w.key("medians");
  w.begin_object();
  for (const auto& [path, median] : medians) {
    w.key(path);
    w.number(median);
  }
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

std::vector<std::pair<std::string, double>> parse_stat_baseline(
    const std::string& text) {
  const json::Value parsed = json::parse(text);
  std::vector<std::pair<std::string, double>> out;
  const json::Value* medians = parsed.find("medians");
  CHOIR_EXPECT(medians != nullptr && medians->is_object(),
               "stat baseline lacks a medians object");
  for (const auto& [path, value] : medians->object) {
    CHOIR_EXPECT(value.is_number(),
                 "stat baseline median is not a number: " + path);
    out.emplace_back(path, value.number_value);
  }
  return out;
}

}  // namespace choir::analysis
