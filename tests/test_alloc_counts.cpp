// Machine-independent work gates: heap allocations made by loading and
// writing a trace must not grow with the record count, and per-flow κ
// must not allocate per flow. This binary replaces the global operator
// new to count allocations, so it is kept apart from every other test
// executable.
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/flow_kappa.hpp"
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

}  // namespace
}  // namespace choir::trace
