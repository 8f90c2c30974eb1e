// Rolling recording and the breakpoint primitive (Section 4 future work).
#include <gtest/gtest.h>

#include "choir/middlebox.hpp"
#include "pktio/headers.hpp"
#include "test_helpers.hpp"
#include "trace/tag.hpp"

namespace choir::app {
namespace {

using test::make_frame;
using test::SinkEndpoint;

net::NicConfig quiet() {
  net::NicConfig cfg;
  cfg.ts_noise_sigma_ns = 0.0;
  cfg.wander_sigma_ns = 0.0;
  cfg.stall_rate_hz = 0.0;
  cfg.dma_pull_jitter_sigma_ns = 0.0;
  return cfg;
}

TEST(RollingRecording, KeepsMostRecentPackets) {
  pktio::Mempool pool(64);
  Recording rec(8, Recording::Mode::kRolling);
  for (int burst = 0; burst < 10; ++burst) {
    pktio::Mbuf* pkts[2] = {pool.alloc(), pool.alloc()};
    pkts[0]->frame.payload_token = static_cast<std::uint64_t>(2 * burst);
    pkts[1]->frame.payload_token = static_cast<std::uint64_t>(2 * burst + 1);
    EXPECT_TRUE(rec.add_burst(1000 + burst, pkts, 2));
    pktio::Mempool::release(pkts[0]);
    pktio::Mempool::release(pkts[1]);
  }
  EXPECT_EQ(rec.packet_count(), 8u);
  EXPECT_EQ(rec.evicted_packets(), 12u);
  // The oldest surviving packet is number 12 (bursts 0..5 evicted).
  EXPECT_EQ(rec.burst(0).pkts[0]->frame.payload_token, 12u);
  EXPECT_EQ(rec.burst(rec.burst_count() - 1).pkts[1]->frame.payload_token,
            19u);
}

TEST(RollingRecording, BurstViewSurvivesOlderEvictions) {
  // A view of the newest burst keeps reading its own packets while
  // newer bursts evict the older ones from the front.
  pktio::Mempool pool(64);
  Recording rec(6, Recording::Mode::kRolling);
  const auto add = [&](std::uint64_t token) {
    pktio::Mbuf* pkts[2] = {pool.alloc(), pool.alloc()};
    pkts[0]->frame.payload_token = token;
    pkts[1]->frame.payload_token = token + 1;
    EXPECT_TRUE(rec.add_burst(token, pkts, 2));
    pktio::Mempool::release(pkts[0]);
    pktio::Mempool::release(pkts[1]);
  };
  add(0);
  add(2);
  const RecordedBurst view = rec.burst(1);  // tokens 2, 3
  add(4);
  add(6);  // evicts tokens 0, 1
  ASSERT_EQ(rec.evicted_packets(), 2u);
  EXPECT_EQ(view.pkts.front()->frame.payload_token, 2u);
  EXPECT_EQ(view.pkts[1]->frame.payload_token, 3u);
  EXPECT_EQ(*view.pkts.begin(), view.pkts.front());
}

TEST(RollingRecording, EvictionReleasesBuffers) {
  pktio::Mempool pool(16);
  Recording rec(4, Recording::Mode::kRolling);
  for (int i = 0; i < 16; ++i) {
    pktio::Mbuf* one[1] = {pool.alloc()};
    ASSERT_NE(one[0], nullptr) << "evictions must recycle buffers";
    rec.add_burst(static_cast<std::uint64_t>(i), one, 1);
    pktio::Mempool::release(one[0]);
  }
  EXPECT_EQ(rec.packet_count(), 4u);
  // 4 held by the recording; the rest back in the pool.
  EXPECT_EQ(pool.available(), pool.capacity() - 4);
}

TEST(BoundedRecording, RefusesBeyondCapacity) {
  pktio::Mempool pool(16);
  Recording rec(4, Recording::Mode::kBounded);
  for (int i = 0; i < 8; ++i) {
    pktio::Mbuf* one[1] = {pool.alloc()};
    const bool accepted = rec.add_burst(static_cast<std::uint64_t>(i), one, 1);
    EXPECT_EQ(accepted, i < 4);
    pktio::Mempool::release(one[0]);
  }
  EXPECT_EQ(rec.packet_count(), 4u);
  EXPECT_EQ(rec.evicted_packets(), 0u);
}

TEST(RollingRecording, BurstLargerThanCapacityRejected) {
  pktio::Mempool pool(8);
  Recording rec(2, Recording::Mode::kRolling);
  pktio::Mbuf* pkts[4];
  for (auto& p : pkts) p = pool.alloc();
  EXPECT_FALSE(rec.add_burst(1, pkts, 4));
  for (auto* p : pkts) pktio::Mempool::release(p);
  EXPECT_EQ(rec.packet_count(), 0u);
}

TEST(RollingRecording, ConfigureOnlyWhileEmpty) {
  pktio::Mempool pool(8);
  Recording rec(100, Recording::Mode::kBounded);
  rec.configure(4, Recording::Mode::kRolling);
  EXPECT_EQ(rec.capacity(), 4u);
  pktio::Mbuf* one[1] = {pool.alloc()};
  rec.add_burst(1, one, 1);
  pktio::Mempool::release(one[0]);
  rec.configure(999, Recording::Mode::kBounded);  // ignored: not empty
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.mode(), Recording::Mode::kRolling);
}

struct BreakpointFixture : ::testing::Test {
  sim::EventQueue queue;
  net::Link in_stub{queue};
  net::Link out_link{queue, net::LinkConfig{0}};
  SinkEndpoint sink;
  net::PhysNic in_phys{queue, quiet(), Rng(1), in_stub};
  net::PhysNic out_phys{queue, quiet(), Rng(2), out_link};
  net::Vf& in_vf{in_phys.add_vf(pktio::mac_for_node(10), true)};
  net::Vf& out_vf{out_phys.add_vf(pktio::mac_for_node(10), true)};
  sim::NodeClock clock{sim::TscClock(2.5), sim::SystemClock()};
  pktio::Mempool pool{4096};

  ChoirConfig rolling_cfg(std::size_t window) {
    ChoirConfig cfg;
    cfg.rolling_record = true;
    cfg.max_recorded_packets = window;
    cfg.poll.jitter_sigma_ns = 0.0;
    cfg.loop_check_ns = 0.0;
    return cfg;
  }

  BreakpointFixture() { out_link.connect(sink); }
};

TEST_F(BreakpointFixture, RollingMiddleboxNeverOverflows) {
  Middlebox mb(queue, clock, in_vf, out_vf, rolling_cfg(50), Rng(3));
  mb.start();
  mb.start_record();
  for (int i = 0; i < 500; ++i) {
    in_phys.deliver(make_frame(pool, 1400, i, 1, 4),
                    microseconds(10) + i * 280);
  }
  queue.run();
  EXPECT_EQ(mb.stats().record_overflow, 0u);
  EXPECT_LE(mb.recording().packet_count(), 50u);
  // The window holds the most recent traffic.
  const Recording& rec = mb.recording();
  const RecordedBurst last_burst = rec.burst(rec.burst_count() - 1);
  EXPECT_EQ(last_burst.pkts.back()->frame.payload_token, 499u);
}

TEST_F(BreakpointFixture, BreakpointFreezesBacktrace) {
  Middlebox mb(queue, clock, in_vf, out_vf, rolling_cfg(64), Rng(4));
  mb.start();
  mb.start_record();
  // Trip on the packet whose token is 300.
  mb.set_breakpoint([](const pktio::Frame& frame) {
    return frame.payload_token == 300;
  });
  for (int i = 0; i < 500; ++i) {
    in_phys.deliver(make_frame(pool, 1400, i, 1, 4),
                    microseconds(10) + i * 280);
  }
  queue.run();
  EXPECT_EQ(mb.stats().breakpoint_hits, 1u);
  EXPECT_FALSE(mb.recording_active());
  EXPECT_FALSE(mb.breakpoint_armed());
  // The recording ends at (or within a burst of) the trigger and holds
  // the traffic leading up to it.
  const Recording& rec = mb.recording();
  const std::uint64_t last =
      rec.burst(rec.burst_count() - 1).pkts.back()->frame.payload_token;
  EXPECT_GE(last, 300u);
  EXPECT_LE(last, 310u);  // within one burst of the trigger
  const std::uint64_t first =
      rec.burst(0).pkts.front()->frame.payload_token;
  EXPECT_GE(first, 300u - 64u);
}

TEST_F(BreakpointFixture, BacktraceIsReplayable) {
  Middlebox mb(queue, clock, in_vf, out_vf, rolling_cfg(32), Rng(5));
  mb.start();
  mb.start_record();
  mb.set_breakpoint([](const pktio::Frame& frame) {
    return frame.payload_token == 100;
  });
  for (int i = 0; i < 200; ++i) {
    in_phys.deliver(make_frame(pool, 1400, i, 1, 4),
                    microseconds(10) + i * 280);
  }
  queue.run();
  const std::size_t window = mb.recording().packet_count();
  ASSERT_GT(window, 0u);
  sink.deliveries.clear();
  mb.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  EXPECT_EQ(sink.deliveries.size(), window);
}

TEST_F(BreakpointFixture, UnmatchedBreakpointStaysArmed) {
  Middlebox mb(queue, clock, in_vf, out_vf, rolling_cfg(32), Rng(6));
  mb.start();
  mb.start_record();
  mb.set_breakpoint([](const pktio::Frame& frame) {
    return frame.payload_token == 99999;
  });
  for (int i = 0; i < 100; ++i) {
    in_phys.deliver(make_frame(pool, 1400, i, 1, 4),
                    microseconds(10) + i * 280);
  }
  queue.run();
  EXPECT_EQ(mb.stats().breakpoint_hits, 0u);
  EXPECT_TRUE(mb.breakpoint_armed());
  EXPECT_TRUE(mb.recording_active());
}

}  // namespace
}  // namespace choir::app
