// Machine-independent work gates: heap allocations made by loading and
// writing a trace must not grow with the record count, per-flow κ must
// not allocate per flow, a full experiment's allocations per recorded
// packet stay pinned, its peak live heap grows by no more than a trial
// per run, a monitored run needs one window rather than the run,
// and the bytes a reference index allocates per packet stay bounded.
// Allocation counts and sizes are deterministic, so they gate exactly
// where host time cannot. This binary replaces the global operator new
// to count allocations, sum their bytes and track the live and peak
// heap, so it is kept apart from every other test executable.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_index.hpp"
#include "common/rng.hpp"
#include "core/compare_scratch.hpp"
#include "core/metrics.hpp"
#include "flow/flow_kappa.hpp"
#include "monitor/stream_monitor.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "trace/tag.hpp"
#include "trace/trace_file.hpp"

namespace {
std::size_t g_allocations = 0;
std::size_t g_bytes = 0;
// Live and peak heap bytes from operator new, by the allocator's usable
// size of each block, so that a block is subtracted exactly as added.
std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;

void release(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
}  // namespace

// All three stay out of line, so that g++ never pairs an inlined
// malloc() or free() with the other operator (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes += malloc_usable_size(p);
    g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  release(p);
}

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
  // Pinned at today's slope, so a change either way shows up here. What
  // is left is mostly deque blocks: app::Recording (choir/recording.hpp)
  // holds packets flat in one deque (a block per 64 packets) and one
  // record per burst (a block per 21 bursts); local-dual's bursts are
  // about half as large, so it pays more per packet. Measured 0.0321 and
  // 0.0486; the band is far narrower than the 0.3 per packet that one
  // more allocation per burst adds.
  EXPECT_NEAR(experiment_allocations_per_packet(testbed::local_single()),
              0.0321, 0.005);
  EXPECT_NEAR(experiment_allocations_per_packet(testbed::local_dual()),
              0.0486, 0.005);
}

/// Peak live heap bytes of a local-single run_experiment (seed 1,
/// sequential classification, no series, captures not kept) above the
/// live bytes at its start.
std::size_t experiment_peak_bytes(int runs, std::uint64_t packets) {
  testbed::ExperimentConfig config;
  config.env = testbed::local_single();
  config.packets = packets;
  config.runs = runs;
  config.seed = 1;
  config.eval_jobs = 1;
  config.collect_series = false;
  const std::size_t base = g_live_bytes;
  g_peak_bytes = base;
  const testbed::ExperimentResult result = testbed::run_experiment(config);
  EXPECT_EQ(result.capture_sizes,
            std::vector<std::size_t>(static_cast<std::size_t>(runs), packets));
  return g_peak_bytes - base;
}

TEST_F(AllocCounts, ExperimentPeakBytesAreFlatInRuns) {
  // Each run closes at its round end into a trial that is compared
  // against run A's there and then dropped; its capture is refilled by
  // the next run. So the peak holds run A, one more run and the κ arena
  // whatever the run count: past 3 runs (the first whose peak has a
  // non-last round's κ arena beside the capture buffer), an extra run
  // may add only its comparison result and a few scheduled events, 2 B
  // per packet. Keeping each run's trial until the last run instead
  // adds a trial (24 B per packet) per run.
  constexpr std::uint64_t kPackets = 16384;
  const std::size_t three = experiment_peak_bytes(3, kPackets);
  const std::size_t six = experiment_peak_bytes(6, kPackets);
  const std::size_t growth = six > three ? six - three : 0;
  std::printf("peak heap: %zu B at 3 runs, %zu B at 6; %zu B more, "
              "%.2f B per packet per extra run\n",
              three, six, growth,
              static_cast<double>(growth) / (3.0 * kPackets));
  EXPECT_LE(growth, 3 * 2 * kPackets);
}

/// One replayer's tagged capture of n packets in `order`.
Capture tagged_capture(const std::vector<std::uint64_t>& order) {
  Capture cap("offline");
  cap.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pktio::Frame frame;
    frame.wire_len = 1400;
    frame.header_len = 42;
    stamp(frame, Tag{1, 0, order[i]});
    cap.append(CaptureRecord::from_frame(frame, static_cast<Ns>(i) * 280));
  }
  return cap;
}

TEST_F(AllocCounts, OfflineComparePeakBytesPerPacket) {
  // What `choirctl compare` holds on the heap at once for a near-ordered
  // 100k-packet pair (B swaps one neighbour pair in 50 and moves 20
  // packets far). The traces are mapped, not read into the heap; the
  // budget below names every per-packet buffer, and the slack is 2 B
  // per packet.
  constexpr std::size_t kPackets = 100'000;
  std::vector<std::uint64_t> order(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) order[i] = i;
  write_trace(tagged_capture(order), path);
  Rng rng(3);
  for (std::size_t i = 0; i + 1 < kPackets; i += 50) {
    std::swap(order[i], order[i + 1]);
  }
  for (int k = 0; k < 20; ++k) {
    std::swap(order[rng.uniform_u64(kPackets)],
              order[rng.uniform_u64(kPackets)]);
  }
  const std::string path_b = path + ".b";
  write_trace(tagged_capture(order), path_b);
  order = {};

  const std::size_t base = g_live_bytes;
  g_peak_bytes = base;
  {
    const MappedCapture a(path);
    const MappedCapture b(path_b);
    const core::Trial trial_a = testbed::rebased_trial(a);
    const core::Trial trial_b = testbed::rebased_trial(b);
    core::ComparisonOptions options;
    options.collect_series = true;
    const core::ComparisonResult cmp =
        core::compare_trials(trial_a, trial_b, options);
    EXPECT_EQ(cmp.common, kPackets);
    EXPECT_GT(cmp.moved, 0u);
  }
  std::remove(path_b.c_str());
  const std::size_t peak = g_peak_bytes - base;
  std::printf("offline compare peak heap: %zu B, %.2f B per packet\n", peak,
              static_cast<double>(peak) / kPackets);
  const std::size_t budget =
      2 * sizeof(core::TrialPacket)             // the two rebased trials
      + sizeof(std::uint32_t)                   // the reference index lane
      + sizeof(core::CompareScratch::Claim)     // claims
      + sizeof(core::MatchedPacket)             // matches
      + sizeof(core::Move)                      // moves, reserved to m
      + 6 * sizeof(std::uint32_t)               // ranks, LIS piles, LIS out
      + 2 * sizeof(char)                        // LCS membership flags
      + 2 * sizeof(double);                     // IAT and latency series
  EXPECT_LE(peak, (budget + 2) * kPackets);
}

/// Heap a StreamMonitor (8192-packet windows) needs to window one
/// in-order run of `packets` against a 65536-packet reference, above the
/// warm level: the peak live bytes of the call above the live bytes once
/// it returns, which hold the monitor's reused buffers and every window
/// record it keeps. A first call on the same run warms those buffers.
std::size_t monitored_run_heap_bytes(std::size_t packets) {
  constexpr std::size_t kReference = std::size_t{1} << 16;
  const auto packet = [](std::size_t i) {
    return core::TrialPacket{packet_id_of(Tag{1, 0, i}),
                             static_cast<Ns>(i) * 280};
  };
  core::Trial reference;
  reference.reserve(kReference);
  for (std::size_t i = 0; i < kReference; ++i) reference.push_back(packet(i));
  core::Trial trial;
  trial.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) trial.push_back(packet(i));
  monitor::MonitorConfig config;
  config.window_packets = 8192;
  monitor::StreamMonitor mon(config);
  const monitor::MonitoredRun run{.reference = reference, .trial = trial};
  mon.monitor_run("run-1", run);
  g_peak_bytes = g_live_bytes;
  mon.monitor_run("run-2", run);
  EXPECT_EQ(mon.windows().size(), 2 * packets / config.window_packets);
  return g_peak_bytes - g_live_bytes;
}

TEST_F(AllocCounts, MonitoredStreamHeapIsOneWindow) {
  // The monitor reads each run in place and compares one window at a
  // time, so the heap it needs above its warm level is one window's
  // comparison whatever the run's length: a run four times as long needs
  // exactly the same. Anything copied or kept per packet of the run
  // during the call fails it.
  constexpr std::size_t kShort = 16384;
  constexpr std::size_t kLong = 65536;
  const std::size_t short_heap = monitored_run_heap_bytes(kShort);
  const std::size_t long_heap = monitored_run_heap_bytes(kLong);
  std::printf("monitored run heap above warm: %zu B at %zu packets, %zu B "
              "at %zu\n",
              short_heap, kShort, long_heap, kLong);
  EXPECT_GT(short_heap, 0u);
  EXPECT_EQ(long_heap, short_heap);
}

/// Bytes allocated by building a fresh core::ReferenceIndex over `a`.
std::size_t reference_index_bytes(const core::Trial& a) {
  const std::size_t before = g_bytes;
  const core::ReferenceIndex index(a);
  const std::size_t made = g_bytes - before;
  EXPECT_EQ(index.size(), a.size());
  return made;
}

constexpr std::size_t kIndexPackets = std::size_t{1} << 16;

TEST_F(AllocCounts, ReferenceIndexBytesPerDenseTaggedPacket) {
  // One replayer's tagged sequence, in order: the lane holds a 4-byte
  // dense id per packet. A 24-byte-slot hash table at load <= 1/2 took
  // 96 B per packet here.
  core::Trial a;
  for (std::uint64_t i = 0; i < kIndexPackets; ++i) {
    a.push_back({packet_id_of(Tag{1, 0, i}), static_cast<Ns>(i)});
  }
  EXPECT_LE(reference_index_bytes(a), 8 * kIndexPackets);
}

TEST_F(AllocCounts, ReferenceIndexBytesForRandomIdsWithinFlatIndex) {
  // Random 128-bit ids, one `hi` each: no lane ever opens, and the index
  // costs no more than the hash table alone, reserved up front.
  Rng rng(5);
  core::Trial a;
  for (std::size_t i = 0; i < kIndexPackets; ++i) {
    a.push_back({core::PacketId{rng.next_u64(), rng.next_u64()},
                 static_cast<Ns>(i)});
  }
  const std::size_t before = g_bytes;
  {
    FlatIndex<core::PacketId, core::PacketIdHash> flat;
    flat.reserve(a.size());
    for (const core::TrialPacket& p : a.packets()) flat.insert(p.id);
  }
  const std::size_t flat_bytes = g_bytes - before;
  EXPECT_LE(reference_index_bytes(a), flat_bytes);
}

}  // namespace
}  // namespace choir::trace
