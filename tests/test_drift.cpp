// Unit tests for the drift detector behind `choirctl soak`: the
// Mann-Kendall monotone-drift test on level series (κ) and the
// IQR-based rate-anomaly test on counter rates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "monitor/drift.hpp"

namespace choir::monitor {
namespace {

TEST(MonotoneDrift, FlagsSteadyKappaDecay) {
  // A soak whose κ loses ~0.01 per round: strictly decreasing, so the
  // normalized Mann-Kendall statistic is -1 and the level drop is real.
  std::vector<double> kappa;
  for (int i = 0; i < 10; ++i) kappa.push_back(0.99 - 0.01 * i);
  const DriftFinding f = detect_monotone_drift("soak.kappa", kappa);
  EXPECT_EQ(f.status, DriftStatus::kDrifting);
  EXPECT_DOUBLE_EQ(f.trend, -1.0);
  EXPECT_GT(f.first_half, f.second_half);
  EXPECT_EQ(f.points, 10u);
}

TEST(MonotoneDrift, StableOnFlatAndOnNoise) {
  const std::vector<double> flat(10, 0.98);
  EXPECT_EQ(detect_monotone_drift("flat", flat).status,
            DriftStatus::kStable);

  // Alternating wobble: no monotone trend whatever the level spread.
  std::vector<double> wobble;
  for (int i = 0; i < 12; ++i) {
    wobble.push_back(0.98 + ((i % 2 == 0) ? 0.005 : -0.005));
  }
  EXPECT_EQ(detect_monotone_drift("wobble", wobble).status,
            DriftStatus::kStable);
}

TEST(MonotoneDrift, StrictTrendOverNanoscopicRangeIsNotDrift) {
  // Strictly decreasing but by 1e-9 total: the min_drop gate must hold
  // it back — a trend you cannot measure is noise, not drift.
  std::vector<double> tiny;
  for (int i = 0; i < 10; ++i) tiny.push_back(0.99 - 1e-10 * i);
  const DriftFinding f = detect_monotone_drift("tiny", tiny);
  EXPECT_EQ(f.status, DriftStatus::kStable);
  EXPECT_DOUBLE_EQ(f.trend, -1.0);
}

TEST(MonotoneDrift, UpwardTrendIsNotKappaDrift) {
  std::vector<double> rising;
  for (int i = 0; i < 10; ++i) rising.push_back(0.90 + 0.01 * i);
  EXPECT_EQ(detect_monotone_drift("rising", rising).status,
            DriftStatus::kStable);
}

TEST(MonotoneDrift, TooFewPointsIsInsufficient) {
  const std::vector<double> three = {0.99, 0.98, 0.97};
  const DriftFinding f = detect_monotone_drift("short", three);
  EXPECT_EQ(f.status, DriftStatus::kInsufficient);
}

TEST(RateAnomaly, FlagsASpikeAgainstASteadyBand) {
  std::vector<double> rates = {100, 101, 99, 100, 102, 98, 100, 400, 101};
  const DriftFinding f = detect_rate_anomaly("rate.drops", rates);
  EXPECT_EQ(f.status, DriftStatus::kDrifting);
  EXPECT_GT(f.anomaly, 5.0);
}

TEST(RateAnomaly, SteadyRatesAreStable) {
  std::vector<double> rates = {100, 101, 99, 100, 102, 98, 100, 101};
  EXPECT_EQ(detect_rate_anomaly("rate.ok", rates).status,
            DriftStatus::kStable);
}

TEST(RateAnomaly, ConstantSeriesIsStableDespiteZeroIqr) {
  const std::vector<double> rates(8, 42.0);
  EXPECT_EQ(detect_rate_anomaly("rate.const", rates).status,
            DriftStatus::kStable);
}

TEST(RateAnomaly, ZeroIqrWithAnOutlierStillFires) {
  std::vector<double> rates = {42, 42, 42, 42, 42, 42, 42, 77};
  EXPECT_EQ(detect_rate_anomaly("rate.step", rates).status,
            DriftStatus::kDrifting);
}

TEST(DriftReport, RenderPutsDriftingFirstAndCountsThem) {
  std::vector<double> decay;
  for (int i = 0; i < 10; ++i) decay.push_back(0.99 - 0.01 * i);
  const std::vector<double> flat(10, 0.98);

  DriftReport report;
  report.findings.push_back(detect_monotone_drift("zz.stable", flat));
  report.findings.push_back(detect_monotone_drift("aa.decay", decay));
  EXPECT_TRUE(report.drifting());
  EXPECT_EQ(report.drifting_count(), 1u);

  const std::string text = render_drift(report);
  const auto drifting_pos = text.find("aa.decay");
  const auto stable_pos = text.find("zz.stable");
  ASSERT_NE(drifting_pos, std::string::npos);
  ASSERT_NE(stable_pos, std::string::npos);
  EXPECT_LT(drifting_pos, stable_pos);
  EXPECT_NE(text.find("drift verdict: 1 drifting of 2 series"),
            std::string::npos);
}

TEST(DriftReport, DeterministicRendering) {
  std::vector<double> decay;
  for (int i = 0; i < 8; ++i) decay.push_back(0.95 - 0.005 * i);
  DriftReport a, b;
  a.findings.push_back(detect_monotone_drift("k", decay));
  b.findings.push_back(detect_monotone_drift("k", decay));
  EXPECT_EQ(render_drift(a), render_drift(b));
}

}  // namespace
}  // namespace choir::monitor
