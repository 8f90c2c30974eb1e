// Tests for the BENCH_*.json layer: byte-deterministic writer, parse
// round-trip, NaN/inf rejection, the tolerance-band comparator, and the
// directory-level gate behind `choirctl bench --compare`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/bench_report.hpp"
#include "common/expect.hpp"
#include "common/json.hpp"

namespace {

using namespace choir;
namespace fs = std::filesystem;

analysis::BenchReport small_report() {
  analysis::BenchReport report;
  report.name = "unit";
  report.suite = "tests";
  report.scale_packets = 1000;
  analysis::BenchCase c;
  c.env = "local-single";
  c.seed = 7;
  c.packets = 1000;
  c.runs = 2;
  c.rate_gbps = 40.0;
  c.frame_bytes = 1400;
  c.replayers = 1;
  c.throughput_gbps = 39.5;
  c.throughput_mpps = 3.5;
  c.trial_ms = 0.28;
  c.recorded_packets = 1000;
  c.mean.uniqueness = 0.0;
  c.mean.ordering = 0.0;
  c.mean.iat = 0.041;
  c.mean.latency = 0.002;
  c.mean.kappa = 0.979;
  analysis::BenchRunRow row;
  row.label = "B";
  row.metrics = c.mean;
  row.iat_within_10ns = 0.998;
  row.capture_size = 1000;
  c.run_rows.push_back(row);
  c.counters.emplace_back("recorder_imissed", 0.0);
  report.cases.push_back(c);
  report.metrics.emplace_back("extra.flag", 1.0);
  return report;
}

TEST(BenchReport, WriterIsByteDeterministic) {
  const std::string a = analysis::to_json(small_report());
  const std::string b = analysis::to_json(small_report());
  EXPECT_EQ(a, b);
  // Schema basics: versioned, newline-terminated, fixed leading keys.
  EXPECT_EQ(a.rfind("{\"schema\":1,\"name\":\"unit\"", 0), 0u);
  EXPECT_EQ(a.back(), '\n');
}

TEST(BenchReport, ParseWriteRoundTripIsIdentity) {
  const std::string text = analysis::to_json(small_report());
  const json::Value parsed = json::parse(text);
  // write() re-emits through the same deterministic writer; modulo the
  // trailing newline the round trip must be exact.
  EXPECT_EQ(json::write(parsed) + "\n", text);
}

TEST(BenchReport, HostSectionOnlyWhenRequested) {
  analysis::BenchReport report = small_report();
  EXPECT_EQ(analysis::to_json(report).find("\"host\""), std::string::npos);
  report.include_host = true;
  report.host.hostname = "testhost";
  report.host.wall_ms = 12.5;
  EXPECT_NE(analysis::to_json(report).find("\"host\""), std::string::npos);
}

TEST(BenchReport, RejectsNanAndInf) {
  analysis::BenchReport nan_report = small_report();
  nan_report.cases[0].mean.kappa = std::nan("");
  EXPECT_THROW(analysis::to_json(nan_report), Error);
  analysis::BenchReport inf_report = small_report();
  inf_report.metrics.emplace_back("bad", INFINITY);
  EXPECT_THROW(analysis::to_json(inf_report), Error);
}

TEST(BenchReport, FlattenKeysCasesByEnvAndRunsByLabel) {
  const json::Value v = json::parse(analysis::to_json(small_report()));
  const auto flat = analysis::flatten_metrics(v);
  auto has = [&](const std::string& path) {
    for (const auto& [p, value] : flat) {
      if (p == path) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("cases.local-single.sim.mean.kappa"));
  EXPECT_TRUE(has("cases.local-single.sim.runs.B.iat_within_10ns"));
  EXPECT_TRUE(has("cases.local-single.counters.recorder_imissed"));
  EXPECT_TRUE(has("metrics.extra.flag"));
}

TEST(BenchCompare, IdenticalReportsPass) {
  const json::Value v = json::parse(analysis::to_json(small_report()));
  const auto result = analysis::compare_reports(v, v);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.added, 0u);
  for (const auto& diff : result.diffs) {
    EXPECT_EQ(diff.status, analysis::DiffStatus::kOk) << diff.path;
  }
}

TEST(BenchCompare, PerturbedSimMetricRegresses) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport worse = small_report();
  worse.cases[0].mean.kappa = 0.5;  // way outside the 0.1% band
  const json::Value cur = json::parse(analysis::to_json(worse));
  const auto result = analysis::compare_reports(base, cur);
  EXPECT_FALSE(result.ok());
  bool found = false;
  for (const auto& diff : result.diffs) {
    if (diff.path == "cases.local-single.sim.mean.kappa") {
      found = true;
      EXPECT_EQ(diff.status, analysis::DiffStatus::kRegressed);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchCompare, TinyDriftStaysInsideBand) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport drift = small_report();
  drift.cases[0].mean.kappa *= 1.0 + 1e-6;  // well inside 0.1%
  const json::Value cur = json::parse(analysis::to_json(drift));
  EXPECT_TRUE(analysis::compare_reports(base, cur).ok());
}

TEST(BenchCompare, ToleranceOptionWidensBand) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport worse = small_report();
  worse.cases[0].mean.kappa = 0.9;  // ~8% off
  const json::Value cur = json::parse(analysis::to_json(worse));
  EXPECT_FALSE(analysis::compare_reports(base, cur).ok());
  analysis::CompareOptions loose;
  loose.sim_tolerance_pct = 20.0;
  EXPECT_TRUE(analysis::compare_reports(base, cur, loose).ok());
}

TEST(BenchCompare, NearZeroBaselineUsesAbsoluteSlack) {
  // U is exactly 0 in the baseline; a relative band would reject any
  // nonzero value. The absolute near-zero slack admits fp dust only.
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport dust = small_report();
  dust.cases[0].mean.uniqueness = 1e-12;
  EXPECT_TRUE(analysis::compare_reports(
                  base, json::parse(analysis::to_json(dust)))
                  .ok());
  analysis::BenchReport real_u = small_report();
  real_u.cases[0].mean.uniqueness = 0.01;
  EXPECT_FALSE(analysis::compare_reports(
                   base, json::parse(analysis::to_json(real_u)))
                   .ok());
}

TEST(BenchCompare, MissingMetricFailsAddedMetricDoesNot) {
  analysis::BenchReport base_report = small_report();
  base_report.metrics.emplace_back("metric.that.vanishes", 3.0);
  const json::Value base = json::parse(analysis::to_json(base_report));

  analysis::BenchReport cur_report = small_report();  // lacks the extra
  cur_report.metrics.emplace_back("metric.that.is.new", 4.0);
  const json::Value cur = json::parse(analysis::to_json(cur_report));

  const auto result = analysis::compare_reports(base, cur);
  EXPECT_FALSE(result.ok());  // vanished metric == regression
  EXPECT_EQ(result.added, 1u);
  bool missing = false;
  bool added = false;
  for (const auto& diff : result.diffs) {
    if (diff.path == "metrics.metric.that.vanishes") {
      missing = diff.status == analysis::DiffStatus::kMissing;
    }
    if (diff.path == "metrics.metric.that.is.new") {
      added = diff.status == analysis::DiffStatus::kAdded;
    }
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(added);

  // Added-only (no vanished metric) must pass the gate.
  const auto forward = analysis::compare_reports(
      json::parse(analysis::to_json(small_report())), cur);
  EXPECT_TRUE(forward.ok());
  EXPECT_EQ(forward.added, 1u);
}

TEST(BenchCompare, HostMetricsAreReportOnly) {
  analysis::BenchReport base_report = small_report();
  base_report.include_host = true;
  base_report.host.hostname = "a";
  base_report.host.wall_ms = 10.0;
  analysis::BenchReport cur_report = small_report();
  cur_report.include_host = true;
  cur_report.host.hostname = "b";
  cur_report.host.wall_ms = 900.0;  // 90x slower: still not a regression
  const auto result = analysis::compare_reports(
      json::parse(analysis::to_json(base_report)),
      json::parse(analysis::to_json(cur_report)));
  EXPECT_TRUE(result.ok());
  bool saw_host = false;
  for (const auto& diff : result.diffs) {
    if (diff.path == "host.wall_ms") {
      saw_host = true;
      EXPECT_EQ(diff.status, analysis::DiffStatus::kHostOnly);
    }
  }
  EXPECT_TRUE(saw_host);
}

TEST(BenchCompare, RenderListsRegressionsFirst) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport worse = small_report();
  worse.cases[0].mean.kappa = 0.5;
  const auto result =
      analysis::compare_reports(base, json::parse(analysis::to_json(worse)));
  const std::string text = analysis::render_compare(result);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("cases.local-single.sim.mean.kappa"),
            std::string::npos);
}

class BenchDirs : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("choir_bench_base_" + std::to_string(::getpid()));
    cur_ = fs::temp_directory_path() /
           ("choir_bench_cur_" + std::to_string(::getpid()));
    fs::create_directories(base_);
    fs::create_directories(cur_);
  }
  void TearDown() override {
    fs::remove_all(base_);
    fs::remove_all(cur_);
  }
  void write(const fs::path& dir, const std::string& name,
             const analysis::BenchReport& report) {
    std::ofstream out(dir / name, std::ios::binary);
    out << analysis::to_json(report);
  }
  fs::path base_;
  fs::path cur_;
};

TEST_F(BenchDirs, IdenticalDirectoriesPass) {
  write(base_, "BENCH_unit.json", small_report());
  write(cur_, "BENCH_unit.json", small_report());
  std::string text;
  EXPECT_EQ(analysis::compare_bench_dirs(base_.string(), cur_.string(), -1.0,
                                        &text),
            0);
}

TEST_F(BenchDirs, PerturbedBaselineTripsGate) {
  // The acceptance check: perturb the baseline, expect a nonzero count.
  analysis::BenchReport perturbed = small_report();
  perturbed.cases[0].mean.kappa = 0.5;
  write(base_, "BENCH_unit.json", perturbed);
  write(cur_, "BENCH_unit.json", small_report());
  std::string text;
  EXPECT_GT(analysis::compare_bench_dirs(base_.string(), cur_.string(), -1.0,
                                        &text),
            0);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  // The explicit tolerance override must clear it (0.5 -> 0.979 is a
  // ~96% move relative to the baseline).
  std::string loose_text;
  EXPECT_EQ(analysis::compare_bench_dirs(base_.string(), cur_.string(), 100.0,
                                        &loose_text),
            0);
}

TEST_F(BenchDirs, MissingCurrentFileIsARegression) {
  write(base_, "BENCH_unit.json", small_report());
  std::string text;
  EXPECT_GT(analysis::compare_bench_dirs(base_.string(), cur_.string(), -1.0,
                                        &text),
            0);
  EXPECT_NE(text.find("BENCH_unit.json"), std::string::npos);
}

// ---- Statistical (PASTRAMI-style) verdicts -----------------------------

analysis::StatSample host_sample(std::vector<double> values) {
  analysis::StatSample s;
  s.path = "host.quick.pps_per_core";
  s.values = std::move(values);
  return s;
}

TEST(StatVerdicts, StableInsideTheBand) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({100, 102, 98, 101, 99})},
      {{"host.quick.pps_per_core", 100.0}});
  ASSERT_EQ(result.verdicts.size(), 1u);
  const analysis::StatVerdict& v = result.verdicts[0];
  EXPECT_EQ(v.status, analysis::StatStatus::kStable);
  EXPECT_EQ(v.reps, 5u);
  EXPECT_DOUBLE_EQ(v.median, 100.0);
  EXPECT_TRUE(v.has_baseline);
  EXPECT_TRUE(result.ok());
}

TEST(StatVerdicts, PerturbedBaselineTripsTheGate) {
  // The samples say ~100; a baseline claiming 200 means the current
  // build lost half its throughput — the gate must fire.
  const auto result = analysis::statistical_verdicts(
      {host_sample({100, 102, 98, 101, 99})},
      {{"host.quick.pps_per_core", 200.0}});
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kRegressed);
  EXPECT_LT(result.verdicts[0].delta_pct, -10.0);
  EXPECT_EQ(result.regressions, 1u);
  EXPECT_FALSE(result.ok());
}

TEST(StatVerdicts, HigherMedianImprovesForThroughput) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({200, 202, 198, 201, 199})},
      {{"host.quick.pps_per_core", 100.0}});
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kImproved);
  EXPECT_TRUE(result.ok());
}

TEST(StatVerdicts, LowerIsWorseFlipsWithHigherIsBetterCleared) {
  analysis::StatOptions options;
  options.higher_is_better = false;  // latency-style metric
  const auto result = analysis::statistical_verdicts(
      {host_sample({200, 202, 198, 201, 199})},
      {{"host.quick.pps_per_core", 100.0}}, options);
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kRegressed);
}

TEST(StatVerdicts, WideSpreadIsUnstableNeverRegressed) {
  // p25/p75 spread far past the gate: PASTRAMI's point is that this
  // sample set cannot support any verdict — even against a baseline it
  // would "regress" against.
  const auto result = analysis::statistical_verdicts(
      {host_sample({50, 150, 60, 140, 100})},
      {{"host.quick.pps_per_core", 200.0}});
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kUnstable);
  EXPECT_GT(result.verdicts[0].spread_pct, 20.0);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.unstable, 1u);
  EXPECT_TRUE(result.ok());
}

TEST(StatVerdicts, TooFewRepsIsUnstable) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({100, 101})}, {{"host.quick.pps_per_core", 100.0}});
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kUnstable);
}

TEST(StatVerdicts, NoBaselineIsReportOnly) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({100, 102, 98, 101, 99})}, {});
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kNoBaseline);
  EXPECT_TRUE(result.ok());
}

TEST(StatVerdicts, BaselineJsonRoundTrips) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({100, 102, 98, 101, 99})}, {});
  const std::string json = analysis::stat_baseline_to_json(result);
  const auto parsed = analysis::parse_stat_baseline(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].first, "host.quick.pps_per_core");
  EXPECT_DOUBLE_EQ(parsed[0].second, 100.0);
  // Byte determinism: serializing twice gives identical text.
  EXPECT_EQ(json, analysis::stat_baseline_to_json(result));
}

TEST(StatVerdicts, RenderListsRegressionsFirst) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({100, 102, 98, 101, 99}),
       {"host.quick.other", {100, 102, 98, 101, 99}}},
      {{"host.quick.other", 100.0},
       {"host.quick.pps_per_core", 200.0}});
  const std::string text = analysis::render_stat_verdicts(result);
  const auto regressed = text.find("pps_per_core");
  const auto stable = text.find("host.quick.other");
  ASSERT_NE(regressed, std::string::npos);
  ASSERT_NE(stable, std::string::npos);
  EXPECT_LT(regressed, stable);
  EXPECT_NE(text.find("1 regressed"), std::string::npos);
}

}  // namespace
