// Replay-timing behaviour of the Choir middlebox: fidelity of recorded
// spacing, wall-clock start conversion, repeatability, and slip modeling.
#include <gtest/gtest.h>

#include "choir/middlebox.hpp"
#include "test_helpers.hpp"

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

struct ReplayFixture : ::testing::Test {
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

  ReplayFixture() { out_link.connect(sink); }

  // Record `n` packets spaced `gap` apart and return the middlebox ready
  // to replay them.
  std::unique_ptr<Middlebox> record(int n, Ns gap,
                                    ChoirConfig cfg = exact_choir(),
                                    std::uint64_t seed = 3) {
    auto mb = std::make_unique<Middlebox>(queue, clock, in_vf, out_vf, cfg,
                                          Rng(seed));
    mb->start();
    mb->start_record();
    for (int i = 0; i < n; ++i) {
      in_phys.deliver(make_frame(pool, 1400, i, 1, 4),
                      microseconds(10) + i * gap);
    }
    queue.run();
    mb->stop_record();
    sink.deliveries.clear();
    return mb;
  }
};

TEST_F(ReplayFixture, ReplaysEveryPacket) {
  auto mb = record(200, 280);
  mb->schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  EXPECT_EQ(sink.deliveries.size(), 200u);
  EXPECT_EQ(mb->stats().replayed_packets, 200u);
  EXPECT_FALSE(mb->replay_active());
}

TEST_F(ReplayFixture, ReproducesRecordedBurstSpacing) {
  auto mb = record(100, 2000);  // one packet per poll -> per burst
  const app::Recording& rec = mb->recording();
  ASSERT_GE(rec.burst_count(), 2u);
  mb->schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 100u);
  // Compare replayed wire spacing against recorded TSC spacing, burst by
  // burst. With exact pacing they match to within a few ns of rounding.
  std::size_t i = 1;
  for (std::size_t b = 1; b < rec.burst_count(); ++b) {
    const double recorded_gap =
        clock.tsc.ticks_to_ns(rec.burst(b).tsc - rec.burst(b - 1).tsc);
    const double replayed_gap = static_cast<double>(
        sink.deliveries[i].wire_time - sink.deliveries[i - 1].wire_time);
    EXPECT_NEAR(replayed_gap, recorded_gap, 3.0);
    i += rec.burst(b).pkts.size();
  }
}

TEST_F(ReplayFixture, StartsAtRequestedWallTime) {
  auto mb = record(10, 280);
  const Ns wall_start = clock.system.read(queue.now()) + milliseconds(7);
  mb->schedule_replay(wall_start);
  queue.run();
  ASSERT_FALSE(sink.deliveries.empty());
  // First wire bit lands just after wall_start (+DMA +serialization).
  const Ns first = sink.deliveries[0].wire_time;
  EXPECT_GE(first, wall_start);
  EXPECT_LE(first, wall_start + microseconds(2));
}

TEST_F(ReplayFixture, ClockOffsetShiftsReplay) {
  auto mb = record(10, 280);
  // The replayer believes it is 1 ms ahead of true time: a command for
  // wall T fires 1 ms early in true time.
  clock.system.set_offset(queue.now(), 1e6);
  const Ns wall_start = clock.system.read(queue.now()) + milliseconds(5);
  mb->schedule_replay(wall_start);
  queue.run();
  const Ns first_true = sink.deliveries[0].wire_time;
  EXPECT_NEAR(static_cast<double>(first_true),
              static_cast<double>(wall_start) - 1e6, 2000.0);
}

TEST_F(ReplayFixture, RepeatedReplaysAreIdentical) {
  auto mb = record(150, 500);
  mb->schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  std::vector<Ns> first_run;
  for (const auto& d : sink.deliveries) first_run.push_back(d.wire_time);
  sink.deliveries.clear();

  mb->schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), first_run.size());
  // With all noise disabled, relative spacing matches exactly.
  for (std::size_t i = 1; i < first_run.size(); ++i) {
    const Ns gap_a = first_run[i] - first_run[i - 1];
    const Ns gap_b =
        sink.deliveries[i].wire_time - sink.deliveries[i - 1].wire_time;
    EXPECT_EQ(gap_a, gap_b) << "at packet " << i;
  }
  EXPECT_EQ(mb->stats().replays_started, 2u);
}

TEST_F(ReplayFixture, SecondScheduleWhileActiveIgnored) {
  auto mb = record(1000, 280);
  const Ns wall = clock.system.read(queue.now());
  mb->schedule_replay(wall + milliseconds(1));
  mb->schedule_replay(wall + milliseconds(2));  // ignored: replay armed
  queue.run();
  EXPECT_EQ(mb->stats().replays_started, 1u);
  EXPECT_EQ(sink.deliveries.size(), 1000u);
}

TEST_F(ReplayFixture, LoopCheckGranularityBoundsJitter) {
  ChoirConfig cfg = exact_choir();
  cfg.loop_check_ns = 50.0;
  auto mb = record(100, 2000, cfg, /*seed=*/11);
  mb->schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  const app::Recording& rec = mb->recording();
  std::size_t i = 1;
  for (std::size_t b = 1; b < rec.burst_count(); ++b) {
    const double recorded_gap =
        clock.tsc.ticks_to_ns(rec.burst(b).tsc - rec.burst(b - 1).tsc);
    const double replayed_gap = static_cast<double>(
        sink.deliveries[i].wire_time - sink.deliveries[i - 1].wire_time);
    // Each burst may fire up to one loop-check late.
    EXPECT_NEAR(replayed_gap, recorded_gap, 55.0);
    i += rec.burst(b).pkts.size();
  }
}

TEST_F(ReplayFixture, SlipsDelayButNeverReorder) {
  ChoirConfig cfg = exact_choir();
  cfg.slip_rate_hz = 50'000.0;  // aggressive preemption
  cfg.slip_mu_log_ns = std::log(30'000.0);
  cfg.slip_sigma_log = 0.5;
  auto mb = record(500, 500, cfg, /*seed=*/12);
  mb->schedule_replay(clock.system.read(queue.now()) + milliseconds(1));
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(sink.deliveries[i].payload_token, i);
  }
}

TEST_F(ReplayFixture, PastStartTimeReplaysImmediately) {
  auto mb = record(10, 280);
  const Ns now_before = queue.now();
  mb->schedule_replay(clock.system.read(queue.now()) - seconds(1));
  queue.run();
  EXPECT_EQ(sink.deliveries.size(), 10u);
  EXPECT_LE(sink.deliveries[0].wire_time, now_before + microseconds(10));
}

}  // namespace
}  // namespace choir::app
