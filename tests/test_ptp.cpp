#include "sim/ptp.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace choir::sim {
namespace {

/// A fault hook with a constant sigma factor.
struct FixedSigmaScale final : PtpFaultHook {
  explicit FixedSigmaScale(double f) : factor(f) {}
  double sigma_scale(Ns) override { return factor; }
  double factor;
};

TEST(Ptp, SyncsAtConfiguredCadence) {
  EventQueue q;
  PtpConfig cfg;
  cfg.interval = milliseconds(100);
  PtpService ptp(q, cfg, Rng(1));
  SystemClock clock(1'000'000);  // 1 ms off before first sync
  ptp.add_slave(&clock);
  ptp.start();
  q.run_until(seconds(1));
  // Initial sync plus ten interval syncs.
  EXPECT_EQ(ptp.rounds(), 11u);
}

TEST(Ptp, PullsOffsetIntoResidualBand) {
  EventQueue q;
  PtpConfig cfg;
  cfg.residual_sigma_ns = 20.0;
  PtpService ptp(q, cfg, Rng(2));
  SystemClock clock(5'000'000);
  ptp.add_slave(&clock);
  ptp.start();
  // Right after sync the offset is a ~N(0, 20 ns) draw.
  EXPECT_LT(std::abs(clock.current_offset(q.now())), 200.0);
}

TEST(Ptp, ResidualsVaryAcrossRounds) {
  EventQueue q;
  PtpConfig cfg;
  cfg.interval = milliseconds(10);
  cfg.residual_sigma_ns = 50.0;
  PtpService ptp(q, cfg, Rng(3));
  SystemClock clock;
  ptp.add_slave(&clock);
  ptp.start();
  const double first = clock.current_offset(q.now());
  q.run_until(milliseconds(15));
  const double second = clock.current_offset(q.now());
  EXPECT_NE(first, second);
}

TEST(Ptp, PerSlaveSigmaOverride) {
  EventQueue q;
  PtpConfig cfg;
  cfg.interval = milliseconds(10);
  cfg.residual_sigma_ns = 10.0;
  PtpService ptp(q, cfg, Rng(4));
  SystemClock tight, loose;
  ptp.add_slave(&tight);
  ptp.add_slave(&loose, /*residual_sigma_ns=*/1e6);
  ptp.start();
  double tight_max = 0, loose_max = 0;
  for (int i = 0; i < 50; ++i) {
    q.run_until(q.now() + milliseconds(10));
    tight_max = std::max(tight_max, std::abs(tight.current_offset(q.now())));
    loose_max = std::max(loose_max, std::abs(loose.current_offset(q.now())));
  }
  EXPECT_LT(tight_max, 100.0);
  EXPECT_GT(loose_max, 10'000.0);
}

TEST(Ptp, MasterOffsetIsSystematic) {
  EventQueue q;
  PtpConfig cfg;
  cfg.master_offset_ns = 1000.0;
  cfg.residual_sigma_ns = 1.0;
  PtpService ptp(q, cfg, Rng(5));
  SystemClock clock;
  ptp.add_slave(&clock);
  ptp.start();
  EXPECT_NEAR(clock.current_offset(q.now()), 1000.0, 10.0);
}

TEST(Ptp, ResidualDistributionMatchesSigma) {
  EventQueue q;
  PtpConfig cfg;
  cfg.interval = milliseconds(1);
  cfg.residual_sigma_ns = 40.0;
  PtpService ptp(q, cfg, Rng(6));
  SystemClock clock;
  ptp.add_slave(&clock);
  ptp.start();
  double sq = 0;
  const int rounds = 2000;
  for (int i = 0; i < rounds; ++i) {
    q.run_until(q.now() + milliseconds(1));
    const double o = clock.current_offset(q.now());
    sq += o * o;
  }
  EXPECT_NEAR(std::sqrt(sq / rounds), 40.0, 4.0);
}

TEST(Ptp, ExposesLastAppliedResidualPerSlave) {
  EventQueue q;
  PtpConfig cfg;
  cfg.interval = milliseconds(100);
  cfg.residual_sigma_ns = 30.0;
  PtpService ptp(q, cfg, Rng(21));
  SystemClock a, b;
  const std::size_t ia = ptp.add_slave(&a);
  const std::size_t ib = ptp.add_slave(&b);
  ASSERT_EQ(ptp.slave_count(), 2u);
  ptp.start();
  q.run_until(milliseconds(450));
  // The getter reports exactly the offset the servo last applied.
  EXPECT_EQ(ptp.last_offset_ns(ia), a.current_offset(q.now()));
  EXPECT_EQ(ptp.last_offset_ns(ib), b.current_offset(q.now()));
  EXPECT_NE(ptp.last_offset_ns(ia), ptp.last_offset_ns(ib));
  // 5 rounds (initial + 4 intervals) counted per slave.
  EXPECT_EQ(ptp.syncs(ia), 5u);
  EXPECT_EQ(ptp.syncs(ib), 5u);
  EXPECT_GE(ptp.worst_abs_offset_ns(ia),
            std::fabs(ptp.last_offset_ns(ia)));
}

TEST(Ptp, SigmaScaleHookDegradesResiduals) {
  // The fault-layer hook scales the residual sigma inside a window;
  // outside it the scale is 1 and the draw sequence is untouched, so a
  // hooked service with an inactive window matches an unhooked one.
  EventQueue q1, q2;
  PtpConfig cfg;
  cfg.interval = milliseconds(10);
  cfg.residual_sigma_ns = 20.0;
  SystemClock plain, hooked;
  PtpService p1(q1, cfg, Rng(31));
  PtpService p2(q2, cfg, Rng(31));
  p1.add_slave(&plain);
  const std::size_t i2 = p2.add_slave(&hooked);
  FixedSigmaScale unit(1.0);
  p2.set_fault(i2, &unit);
  p1.start();
  p2.start();
  q1.run_until(milliseconds(100));
  q2.run_until(milliseconds(100));
  EXPECT_EQ(plain.current_offset(q1.now()), hooked.current_offset(q2.now()));

  // A 100x window produces visibly larger residuals.
  EventQueue q3;
  SystemClock degraded;
  PtpService p3(q3, cfg, Rng(31));
  const std::size_t i3 = p3.add_slave(&degraded);
  FixedSigmaScale hundredfold(100.0);
  p3.set_fault(i3, &hundredfold);
  p3.start();
  q3.run_until(milliseconds(100));
  EXPECT_NEAR(p3.worst_abs_offset_ns(i3), 100.0 * p2.worst_abs_offset_ns(i2),
              1e-6 * p3.worst_abs_offset_ns(i3));
}

TEST(Ptp, TwoSlavesGetIndependentResiduals) {
  EventQueue q;
  PtpConfig cfg;
  cfg.residual_sigma_ns = 50.0;
  PtpService ptp(q, cfg, Rng(7));
  SystemClock a, b;
  ptp.add_slave(&a);
  ptp.add_slave(&b);
  ptp.start();
  EXPECT_NE(a.current_offset(q.now()), b.current_offset(q.now()));
}

}  // namespace
}  // namespace choir::sim
