// Machine-independent work gates: heap allocations made by loading and
// writing a trace must not grow with the record count, per-flow κ must
// not allocate per flow, and a full experiment's allocations per
// recorded packet stay pinned. Allocation counts are deterministic, so
// they gate exactly where host time cannot. This binary replaces the
// global operator new to count allocations, so it is kept apart from
// every other test executable.
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/flow_kappa.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "trace/trace_file.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace choir::trace {
namespace {

struct AllocCounts : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_alloc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".trc";
  }
  void TearDown() override { std::remove(path.c_str()); }
};

Capture sample_capture(std::size_t n) {
  Capture cap("alloc");
  cap.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Frame frame;
    frame.wire_len = 1400;
    frame.header_len = 42;
    frame.payload_token = i;
    cap.append(CaptureRecord::from_frame(frame, static_cast<Ns>(i) * 280));
  }
  return cap;
}

/// Heap allocations made by constructing a MappedCapture of an
/// n-record trace.
std::size_t load_allocations(const std::string& path, std::size_t n) {
  write_trace(sample_capture(n), path);
  const std::size_t before = g_allocations;
  const MappedCapture mapped(path);
  const std::size_t made = g_allocations - before;
  EXPECT_EQ(mapped.size(), n);
  return made;
}

/// Heap allocations made by write_trace of an n-record capture.
std::size_t write_allocations(const std::string& path, std::size_t n) {
  const Capture cap = sample_capture(n);
  const std::size_t before = g_allocations;
  write_trace(cap, path);
  return g_allocations - before;
}

TEST_F(AllocCounts, TraceLoadIsIndependentOfRecordCount) {
  EXPECT_EQ(load_allocations(path, 1024), load_allocations(path, 16384));
}

TEST_F(AllocCounts, TraceWriteIsIndependentOfRecordCount) {
  EXPECT_EQ(write_allocations(path, 1024), write_allocations(path, 16384));
}

/// Heap allocations made by compare_flows_by_id over `flows` flows of
/// two packets each, interleaved as a many-flow capture is.
std::size_t flow_compare_allocations(std::size_t flows) {
  core::Trial a;
  core::Trial b;
  std::vector<flow::FlowId> ids;
  for (std::uint64_t i = 0; i < 2 * flows; ++i) {
    a.push_back({core::PacketId{1, i}, static_cast<Ns>(i) * 100});
    b.push_back({core::PacketId{1, i}, static_cast<Ns>(i) * 100 + 7});
    ids.push_back(static_cast<flow::FlowId>(i % flows));
  }
  const std::size_t before = g_allocations;
  const flow::FlowSetComparison cmp =
      flow::compare_flows_by_id(a, ids, b, ids, flows, /*jobs=*/1);
  const std::size_t made = g_allocations - before;
  EXPECT_EQ(cmp.aggregate.matched, flows);
  return made;
}

TEST_F(AllocCounts, FlowCompareAllocatesFewerThanOncePerFlow) {
  // One Trial per flow and side would make at least 2 * 4096 = 8192.
  constexpr std::size_t kFlows = 4096;
  EXPECT_LT(flow_compare_allocations(kFlows), kFlows);
}

/// Heap allocations per recorded packet of a full run_experiment (3 runs,
/// seed 1, sequential evaluation): the slope between 8k- and 32k-packet
/// trials, so every fixed per-run cost cancels.
double experiment_allocations_per_packet(
    const testbed::EnvironmentPreset& env) {
  std::size_t allocations[2] = {};
  std::uint64_t recorded[2] = {};
  const std::uint64_t packets[2] = {8192, 32768};
  for (int i = 0; i < 2; ++i) {
    testbed::ExperimentConfig config;
    config.env = env;
    config.packets = packets[i];
    config.runs = 3;
    config.seed = 1;
    config.eval_jobs = 1;
    const std::size_t before = g_allocations;
    const testbed::ExperimentResult result = testbed::run_experiment(config);
    allocations[i] = g_allocations - before;
    recorded[i] = result.recorded_packets;
  }
  EXPECT_GT(recorded[1], recorded[0]);
  return static_cast<double>(allocations[1] - allocations[0]) /
         static_cast<double>(recorded[1] - recorded[0]);
}

TEST_F(AllocCounts, ExperimentAllocationsPerRecordedPacket) {
  // Pinned at today's slope, so a change either way shows up here. It
  // fits app::Recording::add_burst (choir/recording.hpp) heap-allocating
  // one std::vector per recorded burst; local-dual's bursts are about
  // half as large, so it pays twice per packet. Removing that vector is
  // left for a later change, which re-pins these values.
  // Measured 0.3615 and 0.7227; the band is far narrower than the 0.36
  // per packet that one more allocation per burst adds.
  EXPECT_NEAR(experiment_allocations_per_packet(testbed::local_single()),
              0.3615, 0.01);
  EXPECT_NEAR(experiment_allocations_per_packet(testbed::local_dual()),
              0.7227, 0.01);
}

}  // namespace
}  // namespace choir::trace
