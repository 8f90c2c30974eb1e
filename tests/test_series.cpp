// Unit tests for the time-series observability plane: the MetricSeries
// ring, SeriesSampler cadence determinism, the series.jsonl/Prometheus
// exporters, jobs-independence of the exported bytes, the sampler's
// zero-perturbation contract, and the telemetry-dir summary behind
// `choirctl stats <dir>`.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/export.hpp"
#include "analysis/telemetry_dir.hpp"
#include "common/task_pool.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir {
namespace {

// ---- MetricSeries ring -------------------------------------------------

TEST(MetricSeries, FillsThenWrapsOverwritingOldest) {
  telemetry::MetricSeries s(4);
  for (int i = 0; i < 4; ++i) s.push(Ns{i * 10}, static_cast<double>(i));
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total(), 4u);
  EXPECT_EQ(s.at(0).value, 0.0);
  EXPECT_EQ(s.back().value, 3.0);

  // Two more pushes drop the two oldest points.
  s.push(Ns{40}, 4.0);
  s.push(Ns{50}, 5.0);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total(), 6u);
  EXPECT_EQ(s.at(0).value, 2.0);
  EXPECT_EQ(s.at(0).t, 20);
  EXPECT_EQ(s.at(3).value, 5.0);
  EXPECT_EQ(s.back().t, 50);

  const auto points = s.points();
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].t, points[i].t) << "points must stay ordered";
  }
}

TEST(MetricSeries, WrapManyTimesKeepsFreshestWindow) {
  telemetry::MetricSeries s(3);
  for (int i = 0; i < 100; ++i) s.push(Ns{i}, static_cast<double>(i));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.total(), 100u);
  EXPECT_EQ(s.at(0).value, 97.0);
  EXPECT_EQ(s.at(1).value, 98.0);
  EXPECT_EQ(s.at(2).value, 99.0);
}

TEST(MetricSeries, ZeroCapacityClampsToOne) {
  telemetry::MetricSeries s(0);
  EXPECT_EQ(s.capacity(), 1u);
  s.push(Ns{1}, 1.0);
  s.push(Ns{2}, 2.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.back().value, 2.0);
}

// ---- SeriesSampler cadence --------------------------------------------

/// Drive a registry deterministically on a queue and sample it; running
/// the identical schedule twice must produce identical series.
std::string sampled_series_text(std::size_t capacity) {
  sim::EventQueue queue;
  telemetry::Registry registry;
  telemetry::Counter& packets = registry.counter("packets");
  telemetry::Gauge& depth = registry.gauge("queue.depth");
  telemetry::LatencyHistogram& lat = registry.histogram("latency_ns");
  for (int i = 1; i <= 40; ++i) {
    queue.schedule_at(Ns{i * 1000}, [&, i] {
      packets.add(static_cast<std::uint64_t>(i));
      depth.set(i % 7);
      lat.record(static_cast<std::uint64_t>(i * 3));
    });
  }
  telemetry::SeriesConfig cfg;
  cfg.interval = Ns{4000};
  cfg.capacity = capacity;
  telemetry::SeriesSampler sampler(queue, registry, cfg);
  sampler.start();
  queue.run_until(Ns{40'000});
  sampler.sample_now();
  return analysis::render_series_jsonl(sampler) +
         analysis::render_prometheus_text(sampler);
}

TEST(SeriesSampler, CadenceIsDeterministic) {
  const std::string a = sampled_series_text(4096);
  const std::string b = sampled_series_text(4096);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"name\":\"packets\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"latency_ns.p999\""), std::string::npos);
  EXPECT_NE(a.find("# TYPE choir_packets counter"), std::string::npos);
  EXPECT_NE(a.find("# TYPE choir_queue_depth gauge"), std::string::npos);
}

TEST(SeriesSampler, SamplesOnTheConfiguredInterval) {
  sim::EventQueue queue;
  telemetry::Registry registry;
  registry.counter("c").add(1);
  telemetry::SeriesConfig cfg;
  cfg.interval = Ns{1000};
  telemetry::SeriesSampler sampler(queue, registry, cfg);
  sampler.start();
  queue.run_until(Ns{10'500});
  // Ticks at 1000, 2000, ..., 10000.
  EXPECT_EQ(sampler.samples_taken(), 10u);
  const auto& entries = sampler.entries();
  ASSERT_EQ(entries.count("c"), 1u);
  const telemetry::MetricSeries& series = entries.at("c").series;
  ASSERT_EQ(series.size(), 10u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series.at(i).t, static_cast<Ns>((i + 1) * 1000));
    EXPECT_EQ(series.at(i).value, 1.0);
  }
  EXPECT_EQ(entries.at("c").kind, telemetry::SeriesKind::kCounter);
}

TEST(SeriesSampler, RingWrapUnderLongRun) {
  // Capacity 8 over 40 ticks: the exporter must emit exactly the 8
  // freshest points and report all 40 in `total`.
  const std::string text = sampled_series_text(8);
  EXPECT_NE(text.find("\"total\":11"), std::string::npos)
      << "10 ticks + final sample_now";
  sim::EventQueue queue;
  telemetry::Registry registry;
  telemetry::Counter& c = registry.counter("c");
  for (int i = 1; i <= 40; ++i) {
    queue.schedule_at(Ns{i * 100}, [&c] { c.add(1); });
  }
  telemetry::SeriesConfig cfg;
  cfg.interval = Ns{100};
  cfg.capacity = 8;
  telemetry::SeriesSampler sampler(queue, registry, cfg);
  sampler.start();
  queue.run_until(Ns{4000});
  const telemetry::MetricSeries& series = sampler.entries().at("c").series;
  EXPECT_EQ(series.total(), 40u);
  ASSERT_EQ(series.size(), 8u);
  EXPECT_EQ(series.at(0).t, 3300);
  EXPECT_EQ(series.back().t, 4000);
}

// ---- Full-experiment determinism (the CI cmp gate in miniature) --------

testbed::ExperimentConfig series_config() {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.packets = 2000;
  cfg.runs = 3;
  cfg.seed = 7;
  cfg.collect_series = false;
  cfg.telemetry.enabled = true;
  cfg.telemetry.series_interval = milliseconds(1);
  return cfg;
}

TEST(SeriesDeterminism, ArtifactBytesIndependentOfJobs) {
  // Two copies of one run side by side on pool workers, as a bench row
  // runs its configs.
  const auto runs = parallel_map_indexed<testbed::ExperimentResult>(
      2, 2,
      [](std::size_t) { return testbed::run_experiment(series_config()); });
  const auto& seq = runs[0];
  const auto& par = runs[1];
  ASSERT_NE(seq.telemetry_series, nullptr);
  ASSERT_NE(par.telemetry_series, nullptr);
  EXPECT_GT(seq.telemetry_series->samples_taken(), 0u);
  EXPECT_EQ(analysis::render_series_jsonl(*seq.telemetry_series),
            analysis::render_series_jsonl(*par.telemetry_series));
  EXPECT_EQ(analysis::render_prometheus_text(*seq.telemetry_series),
            analysis::render_prometheus_text(*par.telemetry_series));
}

TEST(SeriesDeterminism, SamplerOnOffIsBitIdentical) {
  // The sampler runs whenever telemetry is on, so "off" is telemetry off.
  testbed::ExperimentConfig off = series_config();
  off.telemetry.enabled = false;
  const auto r_off = testbed::run_experiment(off);
  const auto r_on = testbed::run_experiment(series_config());
  EXPECT_EQ(r_off.telemetry_series, nullptr);
  EXPECT_EQ(r_off.mean.kappa, r_on.mean.kappa);
  EXPECT_EQ(r_off.mean.latency, r_on.mean.latency);
  EXPECT_EQ(r_off.recorded_packets, r_on.recorded_packets);
  EXPECT_EQ(r_off.capture_sizes, r_on.capture_sizes);
}

// ---- Telemetry-dir summary (`choirctl stats <dir>`) --------------------

class TelemetryDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("choir_tdir_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void touch(const std::string& name, const std::string& content = {}) {
    std::filesystem::create_directories(dir_);
    std::ofstream out(dir_ / name, std::ios::binary);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(TelemetryDirTest, MissingDirectory) {
  const auto summary = analysis::summarize_telemetry_dir(dir_.string());
  EXPECT_EQ(summary.status, analysis::TelemetryDirStatus::kMissingDir);
  EXPECT_NE(summary.text.find("does not exist"), std::string::npos);
}

TEST_F(TelemetryDirTest, PresentButEmptyIsDistinctFromMissing) {
  touch("counters.jsonl");  // zero bytes
  touch("histograms.csv");  // zero bytes
  const auto summary = analysis::summarize_telemetry_dir(dir_.string());
  EXPECT_EQ(summary.status, analysis::TelemetryDirStatus::kEmpty);
  EXPECT_EQ(summary.artifacts_present, 2u);
  EXPECT_EQ(summary.artifacts_nonempty, 0u);
  // The summary still lists the empty artifacts and prints the (empty)
  // gauge/histogram sections instead of bailing with "no artifacts".
  EXPECT_NE(summary.text.find("counters.jsonl"), std::string::npos);
  EXPECT_NE(summary.text.find("-- gauges --"), std::string::npos);
  EXPECT_NE(summary.text.find("-- latency histograms"), std::string::npos);
  EXPECT_NE(summary.text.find("every artifact is empty"), std::string::npos);
}

TEST_F(TelemetryDirTest, PresentWithNoArtifactsIsEmptyToo) {
  std::filesystem::create_directories(dir_);
  const auto summary = analysis::summarize_telemetry_dir(dir_.string());
  EXPECT_EQ(summary.status, analysis::TelemetryDirStatus::kEmpty);
  EXPECT_EQ(summary.artifacts_present, 0u);
  EXPECT_NE(summary.text.find("holds no telemetry artifacts"),
            std::string::npos);
}

TEST_F(TelemetryDirTest, NonEmptyArtifactsAreOk) {
  touch("counters.jsonl", "{\"at\":0}\n");
  touch("series.jsonl", "{\"name\":\"x\"}\n");
  touch("metrics.prom", "# TYPE choir_x counter\nchoir_x 1\n");
  const auto summary = analysis::summarize_telemetry_dir(dir_.string());
  EXPECT_EQ(summary.status, analysis::TelemetryDirStatus::kOk);
  EXPECT_EQ(summary.artifacts_nonempty, 3u);
  EXPECT_NE(summary.text.find("series.jsonl"), std::string::npos);
  EXPECT_NE(summary.text.find("metrics.prom"), std::string::npos);
}

TEST_F(TelemetryDirTest, ObsOnlyArtifactsAreOk) {
  // What `choirctl postmortem --obs DIR` leaves: no telemetry files, but
  // the directory is a complete artifact directory all the same.
  touch("group_trace.json", "{\"traceEvents\":[]}\n");
  touch("events.jsonl", "{\"seq\":0}\n{\"seq\":1}\n");
  touch("postmortem.json", "{\"outcomes\":[]}\n");
  const auto summary = analysis::summarize_telemetry_dir(dir_.string());
  EXPECT_EQ(summary.status, analysis::TelemetryDirStatus::kOk);
  EXPECT_EQ(summary.artifacts_present, 3u);
  EXPECT_EQ(summary.artifacts_nonempty, 3u);
  EXPECT_NE(summary.text.find("group_trace.json"), std::string::npos);
  EXPECT_NE(summary.text.find("events.jsonl"), std::string::npos);
  EXPECT_NE(summary.text.find("postmortem.json"), std::string::npos);
}

}  // namespace
}  // namespace choir
