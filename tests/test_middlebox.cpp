#include "choir/middlebox.hpp"

#include <gtest/gtest.h>

#include "choir/controller.hpp"
#include "common/expect.hpp"
#include "test_helpers.hpp"
#include "trace/tag.hpp"

namespace choir::app {
namespace {

using test::SinkEndpoint;
using test::make_frame;

net::NicConfig quiet() {
  net::NicConfig cfg;
  cfg.ts_noise_sigma_ns = 0.0;
  cfg.wander_sigma_ns = 0.0;
  cfg.stall_rate_hz = 0.0;
  cfg.dma_pull_jitter_sigma_ns = 0.0;
  cfg.dma_pull_base = 300;
  return cfg;
}

ChoirConfig exact_choir() {
  ChoirConfig cfg;
  cfg.replayer_id = 10;
  cfg.loop_check_ns = 0.0;
  cfg.slip_rate_hz = 0.0;
  cfg.poll.interval = 500;
  cfg.poll.jitter_sigma_ns = 0.0;
  return cfg;
}

struct MbFixture : ::testing::Test {
  sim::EventQueue queue;
  net::Link in_stub{queue};
  net::Link out_link{queue, net::LinkConfig{0}};
  SinkEndpoint sink;
  net::PhysNic in_phys{queue, quiet(), Rng(1), in_stub};
  net::PhysNic out_phys{queue, quiet(), Rng(2), out_link};
  net::Vf& in_vf{in_phys.add_vf(pktio::mac_for_node(10), true)};
  net::Vf& out_vf{out_phys.add_vf(pktio::mac_for_node(10), true)};
  sim::NodeClock clock{sim::TscClock(2.5), sim::SystemClock()};
  pktio::Mempool pool{8192};

  MbFixture() { out_link.connect(sink); }

  void inject(int n, Ns start, Ns gap, std::uint64_t base_token = 0) {
    for (int i = 0; i < n; ++i) {
      in_phys.deliver(make_frame(pool, 1400, base_token + i, 1, 4),
                      start + i * gap);
    }
  }
};

TEST_F(MbFixture, ForwardsTransparently) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(3));
  mb.start();
  inject(100, microseconds(10), 280);
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sink.deliveries[i].payload_token, i);
  }
  EXPECT_EQ(mb.stats().forwarded, 100u);
  EXPECT_EQ(mb.stats().recorded, 0u);
}

TEST_F(MbFixture, ForwardingAddsBoundedLatency) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(4));
  mb.start();
  inject(1, microseconds(10), 0);
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 1u);
  // Arrival + poll (<=500 ns) + DMA 300 + serialization 112.
  const Ns latency = sink.deliveries[0].wire_time - microseconds(10);
  EXPECT_GE(latency, 300 + 112);
  EXPECT_LE(latency, 500 + 300 + 112 + 1);
}

TEST_F(MbFixture, RecordsWhileActiveOnly) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(5));
  mb.start();
  inject(10, microseconds(10), 280);          // before recording
  queue.schedule_at(microseconds(100), [&] { mb.start_record(); });
  inject(20, microseconds(200), 280, 100);    // recorded
  queue.schedule_at(microseconds(300), [&] { mb.stop_record(); });
  inject(10, microseconds(400), 280, 900);    // after recording
  queue.run();
  EXPECT_EQ(mb.recording().packet_count(), 20u);
  EXPECT_EQ(sink.deliveries.size(), 40u);  // everything still forwarded
}

TEST_F(MbFixture, StampsTagsWhileRecording) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(6));
  mb.start();
  mb.start_record();
  inject(5, microseconds(10), 280);
  queue.run();
  ASSERT_EQ(mb.recording().packet_count(), 5u);
  std::uint64_t expected_seq = 0;
  const Recording& rec = mb.recording();
  for (std::size_t b = 0; b < rec.burst_count(); ++b) {
    for (const pktio::Mbuf* m : rec.burst(b).pkts) {
      ASSERT_TRUE(m->frame.has_trailer);
      const auto tag = trace::decode_tag(m->frame.trailer);
      ASSERT_TRUE(tag.has_value());
      EXPECT_EQ(tag->replayer, 10);
      EXPECT_EQ(tag->sequence, expected_seq++);
    }
  }
}

TEST_F(MbFixture, RecordingIsZeroCopy) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(7));
  mb.start();
  mb.start_record();
  inject(50, microseconds(10), 280);
  queue.run();
  // Buffers are held by the recording (not copied, not freed).
  EXPECT_EQ(pool.capacity() - pool.available(), 50u);
  mb.stop_record();
  mb.clear_recording();
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST_F(MbFixture, RecordingKeepsBurstStructure) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(8));
  mb.start();
  mb.start_record();
  // Two widely spaced clumps arrive; they must land in distinct bursts
  // with increasing TSC stamps.
  inject(4, microseconds(10), 100);
  inject(4, microseconds(200), 100, 50);
  queue.run();
  ASSERT_GE(mb.recording().burst_count(), 2u);
  std::uint64_t prev_tsc = 0;
  const Recording& rec = mb.recording();
  for (std::size_t b = 0; b < rec.burst_count(); ++b) {
    const RecordedBurst burst = rec.burst(b);
    EXPECT_GT(burst.tsc, prev_tsc);
    prev_tsc = burst.tsc;
    EXPECT_LE(burst.pkts.size(), std::size_t{pktio::kMaxBurst});
  }
}

TEST_F(MbFixture, RamBoundStopsRecording) {
  ChoirConfig cfg = exact_choir();
  cfg.max_recorded_packets = 8;
  Middlebox mb(queue, clock, in_vf, out_vf, cfg, Rng(9));
  mb.start();
  mb.start_record();
  inject(64, microseconds(10), 280);
  queue.run();
  EXPECT_LE(mb.recording().packet_count(), 8u);
  EXPECT_GT(mb.stats().record_overflow, 0u);
  EXPECT_EQ(sink.deliveries.size(), 64u);  // forwarding unaffected
}

TEST_F(MbFixture, ControlFramesInterceptedNotForwarded) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(10));
  mb.start();
  pktio::Mbuf* ctl = pool.alloc();
  pktio::FlowAddress flow;
  flow.src_mac = pktio::mac_for_node(3);
  flow.dst_mac = pktio::mac_for_node(10);
  encode_control(ctl->frame, flow, ControlMessage{Op::kStartRecord, 0});
  in_phys.deliver(ctl, microseconds(5));
  inject(3, microseconds(10), 280);
  queue.run();
  EXPECT_EQ(mb.stats().control_frames, 1u);
  EXPECT_EQ(sink.deliveries.size(), 3u);  // the command did not leak out
  EXPECT_TRUE(mb.recording_active());
  EXPECT_EQ(mb.recording().packet_count(), 3u);
}

TEST_F(MbFixture, ClearDuringReplayRefused) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(11));
  mb.start();
  mb.start_record();
  inject(10, microseconds(10), 280);
  queue.run();
  mb.stop_record();
  mb.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  EXPECT_TRUE(mb.replay_active());
  EXPECT_THROW(mb.clear_recording(), Error);
}

TEST_F(MbFixture, ReplayWithEmptyRecordingIsNoop) {
  Middlebox mb(queue, clock, in_vf, out_vf, exact_choir(), Rng(12));
  mb.start();
  mb.schedule_replay(milliseconds(5));
  queue.run();
  EXPECT_EQ(mb.stats().replays_started, 0u);
}

}  // namespace
}  // namespace choir::app
