#include "gen/generator.hpp"
#include "gen/multi_flow.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "test_helpers.hpp"

namespace choir::gen {
namespace {

using test::SinkEndpoint;

net::NicConfig quiet() {
  net::NicConfig cfg;
  cfg.ts_noise_sigma_ns = 0.0;
  cfg.wander_sigma_ns = 0.0;
  cfg.stall_rate_hz = 0.0;
  cfg.dma_pull_jitter_sigma_ns = 0.0;
  return cfg;
}

StreamConfig stream(std::uint64_t count, BitsPerSec rate = gbps(40),
                    std::uint32_t bytes = 1400) {
  StreamConfig cfg;
  cfg.flow.src_mac = pktio::mac_for_node(1);
  cfg.flow.dst_mac = pktio::mac_for_node(2);
  cfg.flow.src_ip = pktio::ip_for_node(1);
  cfg.flow.dst_ip = pktio::ip_for_node(2);
  cfg.flow.src_port = 7000;
  cfg.flow.dst_port = 7001;
  cfg.stream_id = 5;
  cfg.frame_bytes = bytes;
  cfg.rate = rate;
  cfg.count = count;
  cfg.start = microseconds(10);
  return cfg;
}

struct GenFixture : ::testing::Test {
  sim::EventQueue queue;
  SinkEndpoint sink;
  net::Link egress{queue, net::LinkConfig{0}};
  pktio::Mempool pool{200000};

  GenFixture() { egress.connect(sink); }
};

TEST_F(GenFixture, CbrEmitsExactCount) {
  net::PhysNic nic(queue, quiet(), Rng(1), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  MultiFlowGenerator gen(queue, vf, pool, {stream(1000)});
  gen.start();
  queue.run();
  EXPECT_EQ(gen.emitted(), 1000u);
  EXPECT_TRUE(gen.done());
  EXPECT_EQ(sink.deliveries.size(), 1000u);
}

TEST_F(GenFixture, CbrGapIsExact) {
  net::PhysNic nic(queue, quiet(), Rng(2), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  MultiFlowGenerator gen(queue, vf, pool, {stream(500)});
  gen.start();
  queue.run();
  // 1400 B at 40 G: 280 ns per frame, exactly, at the wire.
  for (std::size_t i = 1; i < sink.deliveries.size(); ++i) {
    const Ns gap =
        sink.deliveries[i].wire_time - sink.deliveries[i - 1].wire_time;
    EXPECT_EQ(gap, 280);
  }
  EXPECT_NEAR(gen.gap_ns(), 280.0, 0.01);
}

TEST_F(GenFixture, CbrAtEightyGig) {
  net::PhysNic nic(queue, quiet(), Rng(3), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  MultiFlowGenerator gen(queue, vf, pool, {stream(200, gbps(80))});
  gen.start();
  queue.run();
  const Ns gap = sink.deliveries[1].wire_time - sink.deliveries[0].wire_time;
  EXPECT_EQ(gap, 140);
}

TEST_F(GenFixture, CbrSequentialPayloadTokens) {
  net::PhysNic nic(queue, quiet(), Rng(4), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  MultiFlowGenerator gen(queue, vf, pool, {stream(100)});
  gen.start();
  queue.run();
  for (std::size_t i = 1; i < sink.deliveries.size(); ++i) {
    EXPECT_NE(sink.deliveries[i].payload_token,
              sink.deliveries[i - 1].payload_token);
  }
}

TEST_F(GenFixture, CbrZeroCountIsNoop) {
  net::PhysNic nic(queue, quiet(), Rng(5), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  MultiFlowGenerator gen(queue, vf, pool, {stream(0)});
  gen.start();
  queue.run();
  EXPECT_TRUE(sink.deliveries.empty());
}

TEST_F(GenFixture, CbrSurvivesPoolExhaustion) {
  net::PhysNic nic(queue, quiet(), Rng(6), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  pktio::Mempool tiny(16);
  MultiFlowGenerator gen(queue, vf, tiny, {stream(1000)});
  gen.start();
  queue.run();
  EXPECT_GT(gen.alloc_failures(), 0u);
  EXPECT_GT(sink.deliveries.size(), 0u);
}

TEST_F(GenFixture, CbrMisconfigurationThrows) {
  net::PhysNic nic(queue, quiet(), Rng(7), egress);
  net::Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  StreamConfig bad = stream(10);
  bad.rate = 0;
  EXPECT_THROW(MultiFlowGenerator(queue, vf, pool, {bad}), Error);
  StreamConfig tiny_frame = stream(10);
  tiny_frame.frame_bytes = 20;
  EXPECT_THROW(MultiFlowGenerator(queue, vf, pool, {tiny_frame}), Error);
}

}  // namespace
}  // namespace choir::gen
