// Tests for the BENCH_*.json layer: byte-deterministic writer, parse
// round-trip, NaN/inf rejection, the exact leaf diff and its
// directory-level form behind `choirctl bench --compare`, the host-time
// repetition report, and the bench binaries' checked count flags.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/bench_report.hpp"
#include "bench_common.hpp"
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

TEST(BenchReport, NeverWritesHostSection) {
  // Host time never lands in a report: the bytes are the gate.
  EXPECT_EQ(analysis::to_json(small_report()).find("host"),
            std::string::npos);
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
  const auto flat = analysis::flatten_leaves(v);
  auto text_of = [&](const std::string& path) {
    for (const auto& [p, text] : flat) {
      if (p == path) return text;
    }
    return std::string("<absent>");
  };
  // Numbers keep their token as written; other scalars are JSON text.
  EXPECT_EQ(text_of("cases.local-single.sim.mean.kappa"),
            json::number_repr(0.979));
  EXPECT_EQ(text_of("cases.local-single.sim.runs.B.iat_within_10ns"),
            json::number_repr(0.998));
  EXPECT_EQ(text_of("cases.local-single.counters.recorder_imissed"), "0");
  EXPECT_EQ(text_of("metrics.extra.flag"), "1");
  EXPECT_EQ(text_of("cases.local-single.env"), "\"local-single\"");
  EXPECT_EQ(text_of("scale.choir_full"), "false");
  EXPECT_EQ(text_of("scale.choir_scale"), "null");
}

TEST(BenchCompare, IdenticalReportsPass) {
  const json::Value v = json::parse(analysis::to_json(small_report()));
  const auto result = analysis::compare_reports(v, v);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.changed, 0u);
  EXPECT_EQ(result.missing, 0u);
  EXPECT_EQ(result.added, 0u);
  for (const auto& diff : result.diffs) {
    EXPECT_EQ(diff.status, analysis::DiffStatus::kSame) << diff.path;
  }
}

TEST(BenchCompare, PerturbedSimMetricRegresses) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport worse = small_report();
  worse.cases[0].mean.kappa = 0.5;
  const json::Value cur = json::parse(analysis::to_json(worse));
  const auto result = analysis::compare_reports(base, cur);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.changed, 1u);
  bool found = false;
  for (const auto& diff : result.diffs) {
    if (diff.path == "cases.local-single.sim.mean.kappa") {
      found = true;
      EXPECT_EQ(diff.status, analysis::DiffStatus::kChanged);
      EXPECT_EQ(diff.current, "0.5");
    }
  }
  EXPECT_TRUE(found);
}

/// The one changed leaf of a diff that must have exactly one.
std::string only_changed_path(const analysis::CompareResult& result) {
  std::string path;
  for (const auto& diff : result.diffs) {
    if (diff.status == analysis::DiffStatus::kChanged) {
      EXPECT_TRUE(path.empty()) << "second changed leaf " << diff.path;
      path = diff.path;
    }
  }
  return path;
}

TEST(BenchCompare, TinyDriftFails) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport drift = small_report();
  drift.cases[0].mean.kappa *= 1.0 + 1e-6;
  const auto result = analysis::compare_reports(
      base, json::parse(analysis::to_json(drift)));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(only_changed_path(result), "cases.local-single.sim.mean.kappa");
}

TEST(BenchCompare, LastDigitChangeFails) {
  // A 17-digit token whose last digit moves may parse to the same
  // double; the leaf diff compares the text, so it still fails.
  const std::string text = analysis::to_json(small_report());
  const std::string token = json::number_repr(0.998);
  const std::size_t at = text.find(token);
  ASSERT_NE(at, std::string::npos);
  std::string edited = text;
  char& last = edited[at + token.size() - 1];
  last = last == '9' ? '8' : static_cast<char>(last + 1);
  const auto result =
      analysis::compare_reports(json::parse(text), json::parse(edited));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(only_changed_path(result),
            "cases.local-single.sim.runs.B.iat_within_10ns");
}

TEST(BenchCompare, NearZeroDriftFails) {
  // U is exactly 0 in the baseline; fp dust is a change like any other.
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport dust = small_report();
  dust.cases[0].mean.uniqueness = 1e-12;
  const auto result = analysis::compare_reports(
      base, json::parse(analysis::to_json(dust)));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(only_changed_path(result), "cases.local-single.sim.mean.U");
}

TEST(BenchCompare, MissingMetricFailsAddedMetricDoesNot) {
  analysis::BenchReport base_report = small_report();
  base_report.metrics.emplace_back("metric.that.vanishes", 3.0);
  const json::Value base = json::parse(analysis::to_json(base_report));

  analysis::BenchReport cur_report = small_report();  // lacks the extra
  cur_report.metrics.emplace_back("metric.that.is.new", 4.0);
  const json::Value cur = json::parse(analysis::to_json(cur_report));

  const auto result = analysis::compare_reports(base, cur);
  EXPECT_FALSE(result.ok());  // vanished metric fails
  EXPECT_EQ(result.missing, 1u);
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

TEST(BenchCompare, HostNamedMetricIsGatedLikeAnyOther) {
  // No path is exempt: a "host." leaf that changes fails too.
  analysis::BenchReport base_report = small_report();
  base_report.metrics.emplace_back("host.wall_ms", 10.0);
  analysis::BenchReport cur_report = small_report();
  cur_report.metrics.emplace_back("host.wall_ms", 900.0);
  const auto result = analysis::compare_reports(
      json::parse(analysis::to_json(base_report)),
      json::parse(analysis::to_json(cur_report)));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(only_changed_path(result), "metrics.host.wall_ms");
}

TEST(BenchCompare, RenderListsRegressionsFirst) {
  const json::Value base = json::parse(analysis::to_json(small_report()));
  analysis::BenchReport worse = small_report();
  worse.metrics.emplace_back("metric.that.is.new", 4.0);
  worse.cases[0].mean.kappa = 0.5;
  const auto result =
      analysis::compare_reports(base, json::parse(analysis::to_json(worse)));
  const std::string text = analysis::render_compare(result);
  const auto changed = text.find("changed  cases.local-single.sim.mean.kappa");
  const auto added = text.find("added    metrics.metric.that.is.new");
  ASSERT_NE(changed, std::string::npos) << text;
  ASSERT_NE(added, std::string::npos) << text;
  EXPECT_LT(changed, added);
  EXPECT_NE(text.find("1 changed, 0 missing, 1 added"), std::string::npos)
      << text;
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
  EXPECT_EQ(analysis::compare_bench_dirs(base_.string(), cur_.string(), &text),
            0);
}

TEST_F(BenchDirs, PerturbedBaselineTripsGate) {
  // The acceptance check: perturb the baseline, expect a nonzero count.
  analysis::BenchReport perturbed = small_report();
  perturbed.cases[0].mean.kappa = 0.5;
  write(base_, "BENCH_unit.json", perturbed);
  write(cur_, "BENCH_unit.json", small_report());
  std::string text;
  EXPECT_GT(analysis::compare_bench_dirs(base_.string(), cur_.string(), &text),
            0);
  EXPECT_NE(text.find("changed  cases.local-single.sim.mean.kappa"),
            std::string::npos)
      << text;
}

TEST_F(BenchDirs, MissingCurrentFileIsARegression) {
  write(base_, "BENCH_unit.json", small_report());
  std::string text;
  EXPECT_GT(analysis::compare_bench_dirs(base_.string(), cur_.string(), &text),
            0);
  EXPECT_NE(text.find("BENCH_unit.json"), std::string::npos);
}

// ---- Host-time repetitions (PASTRAMI-style, report-only) ---------------

analysis::StatSample host_sample(std::vector<double> values) {
  analysis::StatSample s;
  s.path = "host.quick.pps_per_core";
  s.values = std::move(values);
  return s;
}

TEST(StatVerdicts, StableInsideTheBand) {
  const auto result =
      analysis::statistical_verdicts({host_sample({100, 102, 98, 101, 99})});
  ASSERT_EQ(result.verdicts.size(), 1u);
  const analysis::StatVerdict& v = result.verdicts[0];
  EXPECT_EQ(v.status, analysis::StatStatus::kStable);
  EXPECT_EQ(v.reps, 5u);
  EXPECT_DOUBLE_EQ(v.p25, 99.0);
  EXPECT_DOUBLE_EQ(v.median, 100.0);
  EXPECT_DOUBLE_EQ(v.p75, 101.0);
  EXPECT_EQ(result.unstable, 0u);
}

TEST(StatVerdicts, WideSpreadIsUnstableNeverRegressed) {
  // p25/p75 spread far past the gate: PASTRAMI's point is that this
  // sample set cannot support any verdict.
  const auto result =
      analysis::statistical_verdicts({host_sample({50, 150, 60, 140, 100})});
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kUnstable);
  EXPECT_GT(result.verdicts[0].spread_pct, 20.0);
  EXPECT_EQ(result.unstable, 1u);
}

TEST(StatVerdicts, TooFewRepsIsUnstable) {
  const auto result =
      analysis::statistical_verdicts({host_sample({100, 101})});
  EXPECT_EQ(result.verdicts[0].status, analysis::StatStatus::kUnstable);
}

TEST(StatVerdicts, RenderKeepsSampleOrderWithLabels) {
  const auto result = analysis::statistical_verdicts(
      {host_sample({50, 150, 60, 140, 100}),
       {"host.quick.other", {100, 102, 98, 101, 99}}});
  const std::string text = analysis::render_stat_verdicts(result);
  const auto unstable = text.find("UNSTABLE    host.quick.pps_per_core");
  const auto stable = text.find("stable      host.quick.other");
  ASSERT_NE(unstable, std::string::npos) << text;
  ASSERT_NE(stable, std::string::npos) << text;
  EXPECT_LT(unstable, stable);
  EXPECT_NE(text.find("p25/p50/p75 99/100/101"), std::string::npos) << text;
  EXPECT_NE(text.find("2 metric(s), 1 unstable"), std::string::npos) << text;
}

// ---- Checked count flags of the bench binaries --------------------------

/// argv of `bench <args...>` for the count parsers, which strip what
/// they parse.
struct Args {
  explicit Args(std::vector<std::string> words) : words_(std::move(words)) {
    words_.insert(words_.begin(), "bench");
    for (std::string& w : words_) argv.push_back(w.data());
    argc = static_cast<int>(argv.size());
  }
  int argc = 0;
  std::vector<char*> argv;

 private:
  std::vector<std::string> words_;
};

TEST(BenchArgs, ParsesAndStripsACount) {
  Args packets({"--packets", "4096", "x"});
  EXPECT_EQ(bench::u64_from_args("--packets", 7, 1, &packets.argc,
                                 packets.argv.data()),
            4096u);
  EXPECT_EQ(packets.argc, 2);  // "bench x"
  Args absent({"x"});
  EXPECT_EQ(bench::int_from_args("--jobs", 3, 0, &absent.argc,
                                 absent.argv.data()),
            3);
  EXPECT_EQ(absent.argc, 2);
  Args zero({"--jobs", "0"});  // --jobs admits 0 (auto)
  EXPECT_EQ(bench::int_from_args("--jobs", 1, 0, &zero.argc,
                                 zero.argv.data()),
            0);
}

TEST(BenchArgs, RejectsWhatIsNotACountInRange) {
  for (const char* bad : {"abc", "12x", "", " 5", "-3", "+3", "0", "1.5"}) {
    Args reps({"--reps", bad});
    EXPECT_THROW(bench::int_from_args("--reps", 1, 1, &reps.argc,
                                      reps.argv.data()),
                 bench::UsageError)
        << "'" << bad << "'";
    Args packets({"--packets", bad});
    EXPECT_THROW(bench::u64_from_args("--packets", 1, 1, &packets.argc,
                                      packets.argv.data()),
                 bench::UsageError)
        << "'" << bad << "'";
  }
  // Parsed only: nothing here starts a worker.
  for (const char* bad : {"-1", "99999999999"}) {
    Args jobs({"--jobs", bad});
    EXPECT_THROW(bench::int_from_args("--jobs", 1, 0, &jobs.argc,
                                      jobs.argv.data()),
                 bench::UsageError)
        << bad;
  }
  Args named({"--packets", "abc"});
  try {
    bench::u64_from_args("--packets", 1, 1, &named.argc, named.argv.data());
    ADD_FAILURE() << "accepted abc";
  } catch (const bench::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--packets"), std::string::npos)
        << e.what();
  }
}

}  // namespace
