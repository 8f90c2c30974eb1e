#include "net/rx_pipeline.hpp"

#include <gtest/gtest.h>

namespace choir::net {
namespace {

NicConfig quiet_config() {
  NicConfig cfg;
  cfg.ts_noise_sigma_ns = 0.0;
  cfg.wander_sigma_ns = 0.0;
  cfg.stall_rate_hz = 0.0;
  return cfg;
}

TEST(RxPipeline, PassThroughWhenQuiet) {
  sim::EventQueue q;
  RxPipeline pipe(q, quiet_config(), Rng(1));
  const auto a = pipe.admit(1000, 1400);
  EXPECT_TRUE(a.accepted);
  EXPECT_EQ(a.release, 1000);
  EXPECT_EQ(a.timestamp, 1000);
}

TEST(RxPipeline, DrainGapEnforcedAfterBacklog) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  RxPipeline pipe(q, cfg, Rng(2));
  // Two frames arriving closer than line-rate drain spacing: the second
  // is pushed out by the 112 ns serialization of the first.
  const auto a = pipe.admit(1000, 1400);
  const auto b = pipe.admit(1001, 1400);
  EXPECT_EQ(a.release, 1000);
  EXPECT_EQ(b.release, 1000 + 112);
}

TEST(RxPipeline, StallHoldsThenDrains) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.stall_rate_hz = 1e9;  // a stall fires essentially immediately
  cfg.stall_mu_log_ns = std::log(50'000.0);
  cfg.stall_sigma_log = 1e-6;  // deterministic ~50 us duration
  RxPipeline pipe(q, cfg, Rng(3));
  q.run_until(10);  // let the first stall event fire
  ASSERT_GT(pipe.stalled_until(), q.now());
  const Ns stall_end = pipe.stalled_until();

  const auto a = pipe.admit(q.now(), 1400);
  EXPECT_GE(a.release, stall_end);
  // Next packets drain back-to-back at line rate after the stall.
  const auto b = pipe.admit(q.now() + 280, 1400);
  EXPECT_EQ(b.release, a.release + 112);
}

TEST(RxPipeline, OrderIsAlwaysPreserved) {
  // The key property behind O = 0 on FABRIC: stalls batch but never
  // reorder.
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.stall_rate_hz = 20000;
  cfg.stall_mu_log_ns = std::log(20'000.0);
  cfg.stall_sigma_log = 0.8;
  RxPipeline pipe(q, cfg, Rng(4));
  Ns prev_release = -1;
  for (int i = 0; i < 20000; ++i) {
    const Ns arrival = i * 280;
    q.run_until(arrival);
    const auto adm = pipe.admit(arrival, 1400);
    if (!adm.accepted) continue;
    ASSERT_GE(adm.release, prev_release);
    prev_release = adm.release;
  }
  EXPECT_GT(pipe.stall_events(), 0u);
}

TEST(RxPipeline, StagingOverflowDropsTail) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.rx_buffer_pkts = 8;
  cfg.stall_rate_hz = 1e9;
  cfg.stall_mu_log_ns = std::log(1e6);  // 1 ms stall
  cfg.stall_sigma_log = 1e-6;
  RxPipeline pipe(q, cfg, Rng(5));
  q.run_until(10);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (pipe.admit(q.now() + i, 1400).accepted) ++accepted;
  }
  EXPECT_EQ(accepted, 8);  // staging fills to capacity, rest tail-drop
  EXPECT_EQ(pipe.overflow_drops(), 92u);
}

TEST(RxPipeline, StagedCountDrainsOverTime) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.stall_rate_hz = 1e9;
  cfg.stall_mu_log_ns = std::log(100'000.0);
  cfg.stall_sigma_log = 1e-6;
  RxPipeline pipe(q, cfg, Rng(6));
  q.run_until(10);
  for (int i = 0; i < 10; ++i) pipe.admit(q.now() + i, 1400);
  EXPECT_GT(pipe.staged(), 0u);
  q.run_until(milliseconds(1));
  EXPECT_EQ(pipe.staged(), 0u);
}

TEST(RxPipeline, TinyControlFrameNotFalselyDropped) {
  // Regression: the staging check must count packets, not divide backlog
  // time by this frame's (tiny) drain gap.
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.rx_buffer_pkts = 1000;
  cfg.stall_rate_hz = 1e9;
  cfg.stall_mu_log_ns = std::log(200'000.0);  // 200 us stall
  cfg.stall_sigma_log = 1e-6;
  RxPipeline pipe(q, cfg, Rng(7));
  q.run_until(10);
  const auto adm = pipe.admit(q.now(), 64);  // lone 64-byte control frame
  EXPECT_TRUE(adm.accepted);
}

TEST(RxPipeline, TimestampNoiseIsBounded) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.ts_noise_sigma_ns = 5.0;
  RxPipeline pipe(q, cfg, Rng(8));
  double max_abs = 0;
  for (int i = 0; i < 5000; ++i) {
    const Ns arrival = i * 1000;
    const auto adm = pipe.admit(arrival, 1400);
    max_abs = std::max(max_abs,
                       std::abs(static_cast<double>(adm.timestamp - arrival)));
  }
  EXPECT_GT(max_abs, 1.0);    // noise present
  EXPECT_LT(max_abs, 50.0);   // ~5 sigma bound + quantum
}

TEST(RxPipeline, TimestampQuantization) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.ts_quantum_ns = 8;
  RxPipeline pipe(q, cfg, Rng(9));
  for (int i = 0; i < 100; ++i) {
    const auto adm = pipe.admit(i * 997, 1400);
    EXPECT_EQ(adm.timestamp % 8, 0);
  }
}

TEST(RxPipeline, WanderShiftsTimestampsSlowly) {
  sim::EventQueue q;
  NicConfig cfg = quiet_config();
  cfg.wander_sigma_ns = 1000.0;
  cfg.wander_interval = milliseconds(1);
  RxPipeline pipe(q, cfg, Rng(10));
  // Adjacent packets share almost the same wander; distant ones differ.
  const auto a = pipe.admit(seconds(0.00), 1400);
  const auto b = pipe.admit(seconds(0.00) + 280, 1400);
  const auto far = pipe.admit(seconds(0.05), 1400);
  const double near_delta = std::abs(
      static_cast<double>((b.timestamp - b.release) - (a.timestamp - a.release)));
  EXPECT_LT(near_delta, 20.0);
  // Far packet has an independent wander draw; typically different.
  const double far_offset =
      std::abs(static_cast<double>(far.timestamp - far.release));
  (void)far_offset;  // existence checked; magnitude is stochastic
}

}  // namespace
}  // namespace choir::net
