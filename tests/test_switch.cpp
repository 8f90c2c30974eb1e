#include "net/switch.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "test_helpers.hpp"

namespace choir::net {
namespace {

using test::SinkEndpoint;
using test::make_frame;

SwitchConfig instant() {
  SwitchConfig cfg;
  cfg.processing_delay = 100;
  cfg.processing_jitter_sigma_ns = 0.0;
  return cfg;
}

struct SwitchFixture : ::testing::Test {
  sim::EventQueue queue;
  pktio::Mempool pool{256};
};

TEST_F(SwitchFixture, PortForwardMovesFrames) {
  Switch sw(queue, instant(), Rng(1));
  const auto in = sw.add_port();
  const auto out = sw.add_port();
  sw.set_port_forward(in, out);
  SinkEndpoint sink;
  sw.egress_link(out).connect(sink);

  sw.ingress(in).deliver(make_frame(pool, 1400, 7), 1000);
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].payload_token, 7u);
  // 100 ns pipeline + 112 ns egress serialization + default 50 ns cable.
  EXPECT_EQ(sink.deliveries[0].wire_time, 1000 + 100 + 112 + 50);
  EXPECT_EQ(sw.forwarded(), 1u);
}

TEST_F(SwitchFixture, MacRouteUsedWithoutPortForward) {
  Switch sw(queue, instant(), Rng(2));
  const auto in = sw.add_port();
  const auto out_a = sw.add_port();
  const auto out_b = sw.add_port();
  sw.set_mac_route(pktio::mac_for_node(5), out_a);
  sw.set_mac_route(pktio::mac_for_node(6), out_b);
  SinkEndpoint sink_a, sink_b;
  sw.egress_link(out_a).connect(sink_a);
  sw.egress_link(out_b).connect(sink_b);

  sw.ingress(in).deliver(make_frame(pool, 1400, 1, 1, 5), 0);
  sw.ingress(in).deliver(make_frame(pool, 1400, 2, 1, 6), 300);
  sw.ingress(in).deliver(make_frame(pool, 1400, 3, 1, 6), 600);
  queue.run();
  EXPECT_EQ(sink_a.deliveries.size(), 1u);
  EXPECT_EQ(sink_b.deliveries.size(), 2u);
}

TEST_F(SwitchFixture, PortForwardOverridesMacRoute) {
  Switch sw(queue, instant(), Rng(3));
  const auto in = sw.add_port();
  const auto fwd = sw.add_port();
  const auto mac_port = sw.add_port();
  sw.set_port_forward(in, fwd);
  sw.set_mac_route(pktio::mac_for_node(5), mac_port);
  SinkEndpoint s_fwd, s_mac;
  sw.egress_link(fwd).connect(s_fwd);
  sw.egress_link(mac_port).connect(s_mac);
  sw.ingress(in).deliver(make_frame(pool, 1400, 1, 1, 5), 0);
  queue.run();
  EXPECT_EQ(s_fwd.deliveries.size(), 1u);
  EXPECT_TRUE(s_mac.deliveries.empty());
}

TEST_F(SwitchFixture, UnroutableFramesDrop) {
  Switch sw(queue, instant(), Rng(4));
  const auto in = sw.add_port();
  sw.add_port();
  sw.ingress(in).deliver(make_frame(pool, 1400, 1, 1, 42), 0);
  queue.run();
  EXPECT_EQ(sw.unroutable_drops(), 1u);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST_F(SwitchFixture, BadFcsDiscardedAtIngress) {
  Switch sw(queue, instant(), Rng(5));
  const auto in = sw.add_port();
  const auto out = sw.add_port();
  sw.set_port_forward(in, out);
  SinkEndpoint sink;
  sw.egress_link(out).connect(sink);
  pktio::Mbuf* bad = make_frame(pool, 1400, 1);
  bad->frame.invalid_fcs = true;
  sw.ingress(in).deliver(bad, 0);
  sw.ingress(in).deliver(make_frame(pool, 1400, 2), 300);
  queue.run();
  EXPECT_EQ(sw.fcs_drops(), 1u);
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].payload_token, 2u);
}

TEST_F(SwitchFixture, TwoIngressStreamsMergeInOrder) {
  // The dual-replayer topology: two inputs forwarded to one output.
  Switch sw(queue, instant(), Rng(6));
  const auto in1 = sw.add_port();
  const auto in2 = sw.add_port();
  const auto out = sw.add_port();
  sw.set_port_forward(in1, out);
  sw.set_port_forward(in2, out);
  SinkEndpoint sink;
  sw.egress_link(out).connect(sink);

  for (int i = 0; i < 10; ++i) {
    sw.ingress(i % 2 == 0 ? in1 : in2)
        .deliver(make_frame(pool, 1400, i), i * 280);
  }
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.deliveries[i].payload_token, static_cast<std::uint64_t>(i));
  }
  // Egress wire never overlaps frames.
  for (int i = 1; i < 10; ++i) {
    EXPECT_GE(sink.deliveries[i].wire_time - sink.deliveries[i - 1].wire_time,
              112);
  }
}

TEST_F(SwitchFixture, OutputQueueTailDropsUnderOverload) {
  SwitchConfig cfg = instant();
  cfg.port_queue_pkts = 8;
  Switch sw(queue, cfg, Rng(7));
  const auto in = sw.add_port();
  const auto out = sw.add_port();
  sw.set_port_forward(in, out);
  SinkEndpoint sink;
  sw.egress_link(out).connect(sink);
  // 100 frames all arriving at once into one 100 G egress.
  for (int i = 0; i < 100; ++i) {
    sw.ingress(in).deliver(make_frame(pool, 1400, i), 0);
  }
  queue.run();
  EXPECT_GT(sw.queue_drops(), 0u);
  EXPECT_LT(sink.deliveries.size(), 100u);
  EXPECT_EQ(sink.deliveries.size() + sw.queue_drops(), 100u);
}

TEST_F(SwitchFixture, InvalidPortConfigurationThrows) {
  Switch sw(queue, instant(), Rng(8));
  sw.add_port();
  EXPECT_THROW(sw.set_port_forward(0, 5), Error);
  EXPECT_THROW(sw.set_mac_route(pktio::mac_for_node(1), 9), Error);
  // A MAC has one route: a second one is a wiring error, not an update.
  sw.set_mac_route(pktio::mac_for_node(1), 0);
  EXPECT_THROW(sw.set_mac_route(pktio::mac_for_node(1), 0), Error);
}

}  // namespace
}  // namespace choir::net
