#include "net/noise.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace choir::net {
namespace {

using test::SinkEndpoint;

NicConfig quiet() {
  NicConfig cfg;
  cfg.ts_noise_sigma_ns = 0.0;
  cfg.wander_sigma_ns = 0.0;
  cfg.stall_rate_hz = 0.0;
  cfg.dma_pull_jitter_sigma_ns = 0.0;
  return cfg;
}

pktio::FlowAddress noise_flow() {
  pktio::FlowAddress f;
  f.src_mac = pktio::mac_for_node(5);
  f.dst_mac = pktio::mac_for_node(6);
  f.src_ip = pktio::ip_for_node(5);
  f.dst_ip = pktio::ip_for_node(6);
  f.src_port = 5201;
  f.dst_port = 5201;
  return f;
}

struct NoiseFixture : ::testing::Test {
  sim::EventQueue queue;
  SinkEndpoint sink;
  Link egress{queue, LinkConfig{0}};
  pktio::Mempool pool{16384};

  NoiseFixture() { egress.connect(sink); }
};

TEST_F(NoiseFixture, EmitsWithinRateEnvelope) {
  PhysNic nic(queue, quiet(), Rng(1), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(5));
  NoiseConfig cfg;
  cfg.min_rate = gbps(35);
  cfg.max_rate = gbps(50);
  NoiseSource noise(queue, vf, pool, noise_flow(), cfg, Rng(2));
  noise.run(0, milliseconds(20));
  queue.run();

  // Offered bytes over 20 ms must land in the envelope (loosely, since
  // the rate random-walks and bursts jitter).
  std::uint64_t bytes = 0;
  for (const auto& d : sink.deliveries) bytes += d.wire_len;
  const double rate = static_cast<double>(bytes) * 8.0 / 20e-3;
  EXPECT_GT(rate, gbps(20));
  EXPECT_LT(rate, gbps(65));
  EXPECT_GT(noise.frames_emitted(), 1000u);
}

TEST_F(NoiseFixture, RespectsStopTime) {
  PhysNic nic(queue, quiet(), Rng(3), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(5));
  NoiseSource noise(queue, vf, pool, noise_flow(), NoiseConfig{}, Rng(4));
  noise.run(milliseconds(1), milliseconds(2));
  queue.run();
  for (const auto& d : sink.deliveries) {
    EXPECT_LT(d.wire_time, milliseconds(3));
  }
  EXPECT_FALSE(sink.deliveries.empty());
}

TEST_F(NoiseFixture, RateStaysClamped) {
  PhysNic nic(queue, quiet(), Rng(5), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(5));
  NoiseConfig cfg;
  cfg.min_rate = gbps(35);
  cfg.max_rate = gbps(50);
  NoiseSource noise(queue, vf, pool, noise_flow(), cfg, Rng(6));
  noise.run(0, milliseconds(50));
  queue.run();
  EXPECT_GE(noise.current_rate(), cfg.min_rate);
  EXPECT_LE(noise.current_rate(), cfg.max_rate);
}

TEST_F(NoiseFixture, SurvivesPoolExhaustion) {
  PhysNic nic(queue, quiet(), Rng(7), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(5));
  pktio::Mempool tiny(8);
  NoiseSource noise(queue, vf, tiny, noise_flow(), NoiseConfig{}, Rng(8));
  noise.run(0, milliseconds(5));
  queue.run();  // must not throw or hang
  EXPECT_GT(noise.frames_emitted(), 0u);
}

TEST_F(NoiseFixture, ReleasesTheFramesTheNicRefuses) {
  // Four descriptors against 32-frame bursts: most of every burst is
  // refused, and the refused frames go back to the noise pool.
  NicConfig cfg = quiet();
  cfg.tx_queue_pkts = 4;
  PhysNic nic(queue, cfg, Rng(11), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(5));
  NoiseSource noise(queue, vf, pool, noise_flow(), NoiseConfig{}, Rng(12));
  noise.run(0, microseconds(200));
  queue.run();
  EXPECT_GT(noise.frames_emitted(), 0u);
  EXPECT_EQ(sink.deliveries.size(), noise.frames_emitted());
  EXPECT_EQ(noise.alloc_failures(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST_F(NoiseFixture, FramesCarryNoiseAddressing) {
  PhysNic nic(queue, quiet(), Rng(9), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(5));
  NoiseSource noise(queue, vf, pool, noise_flow(), NoiseConfig{}, Rng(10));
  noise.run(0, microseconds(50));
  queue.run();
  ASSERT_FALSE(sink.deliveries.empty());
  EXPECT_EQ(sink.deliveries[0].wire_len, NoiseConfig{}.frame_bytes);
}

}  // namespace
}  // namespace choir::net
