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

/// Path element for a flattened leaf. Arrays of objects are keyed by
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
                  std::vector<std::pair<std::string, std::string>>& out) {
  switch (v.kind) {
    case json::Value::Kind::kNumber:
      out.emplace_back(prefix, v.number_text);
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
      out.emplace_back(prefix, json::write(v));
      break;
  }
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
  w.end_object();
  return w.str() + "\n";
}

std::vector<std::pair<std::string, std::string>> flatten_leaves(
    const json::Value& report) {
  std::vector<std::pair<std::string, std::string>> out;
  flatten_into(report, "", out);
  return out;
}

CompareResult compare_reports(const json::Value& baseline,
                              const json::Value& current) {
  std::map<std::string, std::string> cur_by_path;
  for (auto& [path, text] : flatten_leaves(current)) {
    cur_by_path.emplace(std::move(path), std::move(text));
  }
  CompareResult result;
  for (auto& [path, text] : flatten_leaves(baseline)) {
    LeafDiff d;
    d.path = std::move(path);
    d.baseline = std::move(text);
    const auto it = cur_by_path.find(d.path);
    if (it == cur_by_path.end()) {
      d.status = DiffStatus::kMissing;
      ++result.missing;
    } else {
      d.current = std::move(it->second);
      cur_by_path.erase(it);
      if (d.current != d.baseline) {
        d.status = DiffStatus::kChanged;
        ++result.changed;
      }
    }
    result.diffs.push_back(std::move(d));
  }
  for (auto& [path, text] : cur_by_path) {
    LeafDiff d;
    d.path = path;
    d.current = std::move(text);
    d.status = DiffStatus::kAdded;
    ++result.added;
    result.diffs.push_back(std::move(d));
  }
  return result;
}

std::string render_compare(const CompareResult& result) {
  std::string out;
  for (const DiffStatus status :
       {DiffStatus::kChanged, DiffStatus::kMissing, DiffStatus::kAdded}) {
    for (const LeafDiff& d : result.diffs) {
      if (d.status != status) continue;
      if (status == DiffStatus::kChanged) {
        out += "  changed  " + d.path + "  " + d.baseline + " -> " +
               d.current + "\n";
      } else if (status == DiffStatus::kMissing) {
        out += "  missing  " + d.path + "  was " + d.baseline + "\n";
      } else {
        out += "  added    " + d.path + "  " + d.current + "\n";
      }
    }
  }
  const std::size_t same = result.diffs.size() - result.changed -
                           result.missing - result.added;
  out += "  " + std::to_string(same) + " leaves identical, " +
         std::to_string(result.changed) + " changed, " +
         std::to_string(result.missing) + " missing, " +
         std::to_string(result.added) + " added\n";
  return out;
}

int compare_bench_dirs(const std::string& baseline_dir,
                       const std::string& current_dir,
                       std::string* out_text) {
  namespace fs = std::filesystem;
  CHOIR_EXPECT(fs::is_directory(baseline_dir),
               "baseline directory not found: " + baseline_dir);

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
  int failing = 0;
  for (const std::string& file : files) {
    const fs::path current_path = fs::path(current_dir) / file;
    *out_text += "== " + file + " ==\n";
    if (!fs::exists(current_path)) {
      *out_text += "  MISSING: no current result for this baseline\n";
      ++failing;
      continue;
    }
    const auto result = compare_reports(
        read_report(fs::path(baseline_dir) / file), read_report(current_path));
    *out_text += render_compare(result);
    if (!result.ok()) ++failing;
  }
  return failing;
}

// --- Host-time repetitions ---------------------------------------------

const char* to_string(StatStatus status) {
  return status == StatStatus::kStable ? "stable" : "UNSTABLE";
}

StatResult statistical_verdicts(const std::vector<StatSample>& samples,
                                const StatOptions& options) {
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
    if (v.reps < options.min_reps || v.spread_pct > options.spread_gate_pct) {
      v.status = StatStatus::kUnstable;
      ++result.unstable;
    } else {
      v.status = StatStatus::kStable;
    }
    result.verdicts.push_back(std::move(v));
  }
  return result;
}

std::string render_stat_verdicts(const StatResult& result) {
  std::string out;
  char line[320];
  for (const StatVerdict& v : result.verdicts) {
    std::snprintf(line, sizeof(line),
                  "  %-11s %-44s %2zu reps  p25/p50/p75 %.4g/%.4g/%.4g  "
                  "spread %5.1f%%\n",
                  to_string(v.status), v.path.c_str(), v.reps, v.p25,
                  v.median, v.p75, v.spread_pct);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  statistical verdicts: %zu metric(s), %zu unstable\n",
                result.verdicts.size(), result.unstable);
  out += line;
  return out;
}

}  // namespace choir::analysis
