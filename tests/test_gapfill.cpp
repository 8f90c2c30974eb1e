#include "replay/gapfill.hpp"

#include <gtest/gtest.h>

#include "choir/middlebox.hpp"
#include "net/switch.hpp"
#include "test_helpers.hpp"

namespace choir::replay {
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

struct GapFillFixture : ::testing::Test {
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
  std::unique_ptr<app::Middlebox> mb;

  GapFillFixture() { out_link.connect(sink); }

  const app::Recording& record(int n, Ns gap) {
    app::ChoirConfig cfg;
    cfg.loop_check_ns = 0.0;
    cfg.poll.jitter_sigma_ns = 0.0;
    mb = std::make_unique<app::Middlebox>(queue, clock, in_vf, out_vf, cfg,
                                          Rng(3));
    mb->start();
    mb->start_record();
    for (int i = 0; i < n; ++i) {
      in_phys.deliver(make_frame(pool, 1400, i, 1, 4),
                      microseconds(10) + i * gap);
    }
    queue.run();
    mb->stop_record();
    sink.deliveries.clear();
    return mb->recording();
  }
};

TEST_F(GapFillFixture, SendsAllRealPacketsInterleavedWithFiller) {
  const auto& rec = record(100, 2000);
  GapFillReplayer replayer(queue, clock, out_vf, rec, {});
  replayer.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  EXPECT_EQ(replayer.real_packets_sent(), 100u);
  EXPECT_GT(replayer.filler_frames_sent(), 100u);  // gaps need filling
  std::size_t real = 0, filler = 0;
  for (const auto& d : sink.deliveries) {
    (d.invalid_fcs ? filler : real) += 1;
  }
  EXPECT_EQ(real, 100u);
  EXPECT_EQ(filler, replayer.filler_frames_sent());
}

TEST_F(GapFillFixture, WireIsKeptBusy) {
  const auto& rec = record(50, 2000);
  GapFillReplayer replayer(queue, clock, out_vf, rec, {});
  replayer.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  // Between the first and last delivery the wire never idles more than
  // one max-size filler (that is the whole point of the technique).
  for (std::size_t i = 1; i < sink.deliveries.size(); ++i) {
    const Ns gap =
        sink.deliveries[i].wire_time - sink.deliveries[i - 1].wire_time;
    EXPECT_LE(gap, serialization_ns(1500, gbps(100)) + 5);
  }
}

TEST_F(GapFillFixture, RealPacketSpacingIsSerializationExact) {
  const auto& rec = record(50, 2000);
  GapFillReplayer replayer(queue, clock, out_vf, rec, {});
  replayer.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  std::vector<Ns> real_times;
  for (const auto& d : sink.deliveries) {
    if (!d.invalid_fcs) real_times.push_back(d.wire_time);
  }
  ASSERT_EQ(real_times.size(), 50u);
  // Filler sizing reproduces the *recorded* burst spacing (which sits on
  // the forwarding loop's poll grid) to within one minimum-filler
  // serialization time.
  ASSERT_EQ(rec.burst_count(), 50u);  // one packet per burst at this gap
  for (std::size_t i = 1; i < real_times.size(); ++i) {
    const double recorded_gap =
        clock.tsc.ticks_to_ns(rec.burst(i).tsc - rec.burst(i - 1).tsc);
    EXPECT_NEAR(static_cast<double>(real_times[i] - real_times[i - 1]),
                recorded_gap, 12.0);
  }
}

TEST_F(GapFillFixture, FillerDiscardedByNextHop) {
  const auto& rec = record(30, 2000);
  // Route the replay through a switch: bad-FCS fillers die at ingress.
  net::Switch sw(queue, net::SwitchConfig{}, Rng(4));
  const auto in_port = sw.add_port();
  const auto out_port = sw.add_port();
  sw.set_port_forward(in_port, out_port);
  SinkEndpoint far_sink;
  sw.egress_link(out_port).connect(far_sink);
  out_link.connect(sw.ingress(in_port));

  GapFillReplayer replayer(queue, clock, out_vf, rec, {});
  replayer.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  EXPECT_EQ(far_sink.deliveries.size(), 30u);
  for (const auto& d : far_sink.deliveries) {
    EXPECT_FALSE(d.invalid_fcs);
  }
  EXPECT_EQ(sw.fcs_drops(), replayer.filler_frames_sent());
}

TEST_F(GapFillFixture, FillerBytesAccountForGapTime) {
  const auto& rec = record(20, 2000);
  GapFillReplayer::Config cfg;
  GapFillReplayer replayer(queue, clock, out_vf, rec, cfg);
  replayer.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  // 19 gaps of 2 us minus 112 ns of real serialization each, at 100 G
  // ~= 23.6 KB of filler per gap... in total:
  const double gap_time = 19.0 * (2000.0 - 112.0);
  const double expected_bytes = gap_time * gbps(100) / (8.0 * kNsPerSec);
  EXPECT_NEAR(static_cast<double>(replayer.filler_bytes_sent()),
              expected_bytes, expected_bytes * 0.05);
}

TEST_F(GapFillFixture, EmptyRecordingIsNoop) {
  app::Recording empty;
  GapFillReplayer replayer(queue, clock, out_vf, empty, {});
  replayer.schedule_replay(milliseconds(1));
  queue.run();
  EXPECT_EQ(replayer.real_packets_sent(), 0u);
  EXPECT_FALSE(replayer.active());
}

TEST_F(GapFillFixture, SharedWireContentionSqueezesTenants) {
  // The Section 9 argument: on a shared NIC, the filler stream occupies
  // the full line rate, so a competing tenant gets backpressured out of
  // its descriptors — gap filling "would negatively impact other users".
  const auto& rec = record(200, 500);
  net::NicConfig small_queue = quiet();
  // Re-create the out PhysNic with a second (competing) VF would require
  // rebuilding the fixture; instead attach the competitor to out_phys.
  net::Vf& competitor = out_phys.add_vf(pktio::mac_for_node(77));
  GapFillReplayer replayer(queue, clock, out_vf, rec, {});
  replayer.schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  // Competitor blasts 1500-byte frames as fast as it can; unaccepted
  // frames are abandoned (a real tenant would retry and fall behind).
  pktio::Mempool cpool(8192);
  std::uint64_t offered = 0, taken = 0;
  for (int burst = 0; burst < 200; ++burst) {
    queue.schedule_at(clock.system.read(queue.now()) + milliseconds(1) +
                          burst * microseconds(1),
                      [&, burst] {
                        pktio::Mbuf* pkts[16];
                        std::uint16_t have = 0;
                        for (; have < 16; ++have) {
                          pkts[have] = cpool.alloc();
                          if (pkts[have] == nullptr) break;
                          pkts[have]->frame.wire_len = 1500;
                          pkts[have]->frame.payload_token = 0xC0;
                        }
                        offered += have;
                        const auto sent = competitor.backend_tx(pkts, have);
                        taken += sent;
                        for (std::uint16_t i = sent; i < have; ++i) {
                          pktio::Mempool::release(pkts[i]);
                        }
                      });
  }
  (void)small_queue;
  queue.run();
  // Combined offered load exceeded 100 G: the shared descriptor ring
  // backpressured the competing tenant.
  EXPECT_GT(offered, 0u);
  EXPECT_LT(taken, offered);
  // And all real replay packets still made it out.
  EXPECT_EQ(replayer.real_packets_sent(), 200u);
}

}  // namespace
}  // namespace choir::replay
