#include "analysis/export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/expect.hpp"

namespace choir::analysis {
namespace {

struct ExportTest : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_export_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".csv";
  }
  void TearDown() override { std::remove(path.c_str()); }

  std::string slurp() {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(ExportTest, HistogramCsvHasHeaderAndAllBins) {
  DeltaHistogram h({10, 100});
  h.add(5);
  h.add(-50);
  write_histogram_csv(h, path);
  const std::string csv = slurp();
  EXPECT_NE(csv.find("bin_lo_ns,bin_hi_ns,count,fraction"),
            std::string::npos);
  // 5 bins + header = 6 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
  EXPECT_NE(csv.find("-inf"), std::string::npos);
  EXPECT_NE(csv.find("0.5"), std::string::npos);  // two values, two bins
}

TEST_F(ExportTest, MetricsCsvRows) {
  core::ConsistencyMetrics m;
  m.uniqueness = 1e-4;
  m.ordering = 0.02;
  m.iat = 0.5;
  m.latency = 3e-5;
  m.kappa = 0.75;
  write_metrics_csv({{"fabric-noisy", m}}, path);
  const std::string csv = slurp();
  EXPECT_NE(csv.find("label,U,O,I,L,kappa"), std::string::npos);
  EXPECT_NE(csv.find("fabric-noisy,0.0001,0.02,0.5,3e-05,0.75"),
            std::string::npos);
}

TEST_F(ExportTest, UnwritablePathThrows) {
  EXPECT_THROW(write_metrics_csv({}, "/nonexistent-dir/x.csv"), Error);
}

}  // namespace
}  // namespace choir::analysis
