#include "net/nic.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace choir::net {
namespace {

using test::SinkEndpoint;
using test::make_frame;

NicConfig quiet() {
  NicConfig cfg;
  cfg.ts_noise_sigma_ns = 0.0;
  cfg.wander_sigma_ns = 0.0;
  cfg.stall_rate_hz = 0.0;
  cfg.dma_pull_jitter_sigma_ns = 0.0;
  cfg.dma_pull_base = 300;
  return cfg;
}

struct NicFixture : ::testing::Test {
  sim::EventQueue queue;
  SinkEndpoint sink;
  Link egress{queue, LinkConfig{0}};
  pktio::Mempool pool{128};

  NicFixture() { egress.connect(sink); }
};

TEST_F(NicFixture, TxBurstGoesThroughDmaAndWire) {
  PhysNic nic(queue, quiet(), Rng(1), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  pktio::Mbuf* burst[2] = {make_frame(pool, 1400, 1), make_frame(pool, 1400, 2)};
  queue.run_until(1000);
  EXPECT_EQ(vf.backend_tx(burst, 2), 2);
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 2u);
  // DMA pull at 1000+300, then 112 ns serialization each.
  EXPECT_EQ(sink.deliveries[0].wire_time, 1300 + 112);
  EXPECT_EQ(sink.deliveries[1].wire_time, 1300 + 224);
}

TEST_F(NicFixture, DmaPullsAWholeBurstInOneEvent) {
  PhysNic nic(queue, quiet(), Rng(11), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  pktio::Mbuf* burst[5];
  for (std::uint64_t i = 0; i < 5; ++i) burst[i] = make_frame(pool, 1400, i);
  queue.run_until(1000);
  EXPECT_EQ(vf.backend_tx(burst, 5), 5);
  queue.run();
  EXPECT_EQ(queue.ledger()[static_cast<std::size_t>(sim::Component::kNicTx)],
            1u);
  ASSERT_EQ(sink.deliveries.size(), 5u);
  // In order, back to back from the pull at 1000+300: frame i's last bit
  // leaves at pull + (i + 1) * 112 ns.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.deliveries[i].payload_token, i);
    EXPECT_EQ(sink.deliveries[i].wire_time,
              1300 + 112 * static_cast<Ns>(i + 1));
  }
}

TEST_F(NicFixture, PartialAcceptanceLeavesTheRestWithTheCaller) {
  NicConfig cfg = quiet();
  cfg.tx_queue_pkts = 3;
  PhysNic nic(queue, cfg, Rng(12), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  pktio::Mbuf* burst[5];
  for (std::uint64_t i = 0; i < 5; ++i) burst[i] = make_frame(pool, 1400, i);
  EXPECT_EQ(vf.backend_tx(burst, 5), 3);
  EXPECT_EQ(nic.tx_descriptors_free(), 0u);
  queue.run();
  EXPECT_EQ(queue.ledger()[static_cast<std::size_t>(sim::Component::kNicTx)],
            1u);
  ASSERT_EQ(sink.deliveries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.deliveries[i].payload_token, i);
  }
  // The refused frames are still the caller's, untouched.
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(burst[3]->refcnt, 1u);
  EXPECT_EQ(burst[4]->frame.payload_token, 4u);
  // A retry sends them after the first three.
  EXPECT_EQ(vf.backend_tx(burst + 3, 2), 2);
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 5u);
  EXPECT_EQ(sink.deliveries[4].payload_token, 4u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST_F(NicFixture, DmaPullIsFifoAcrossBursts) {
  NicConfig cfg = quiet();
  cfg.dma_pull_jitter_sigma_ns = 200.0;  // heavy jitter
  PhysNic nic(queue, cfg, Rng(2), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  // Submit many single-frame bursts close together; wire order must match
  // submission order despite jitter.
  for (int i = 0; i < 50; ++i) {
    queue.run_until(queue.now() + 10);
    pktio::Mbuf* one[1] = {make_frame(pool, 300, i)};
    vf.backend_tx(one, 1);
  }
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.deliveries[i].payload_token, i);
  }
}

TEST_F(NicFixture, PacedTxSkipsDmaJitter) {
  PhysNic nic(queue, quiet(), Rng(3), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(1));
  vf.tx_paced(make_frame(pool, 1400, 1), 5000);
  queue.run();
  EXPECT_EQ(sink.deliveries[0].wire_time, 5000 + 112);
}

TEST_F(NicFixture, RxRoutesByDestinationMac) {
  PhysNic nic(queue, quiet(), Rng(4), egress);
  Vf& vf1 = nic.add_vf(pktio::mac_for_node(10));
  Vf& vf2 = nic.add_vf(pktio::mac_for_node(20));
  nic.deliver(make_frame(pool, 1400, 1, /*src=*/1, /*dst=*/10), 100);
  nic.deliver(make_frame(pool, 1400, 2, 1, 20), 400);
  nic.deliver(make_frame(pool, 1400, 3, 1, 20), 700);
  queue.run();
  EXPECT_EQ(vf1.rx_pending(), 1u);
  EXPECT_EQ(vf2.rx_pending(), 2u);
  pktio::Mbuf* out[4];
  EXPECT_EQ(vf2.backend_rx(out, 4), 2);
  EXPECT_EQ(out[0]->frame.payload_token, 2u);
  pktio::Mempool::release(out[0]);
  pktio::Mempool::release(out[1]);
  EXPECT_EQ(vf1.backend_rx(out, 4), 1);
  pktio::Mempool::release(out[0]);
}

TEST_F(NicFixture, UnmatchedMacDropsWithoutPromiscuousVf) {
  PhysNic nic(queue, quiet(), Rng(5), egress);
  nic.add_vf(pktio::mac_for_node(10));
  nic.deliver(make_frame(pool, 1400, 1, 1, 99), 100);
  queue.run();
  EXPECT_EQ(nic.rx_drops(), 1u);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST_F(NicFixture, PromiscuousVfCatchesUnmatched) {
  PhysNic nic(queue, quiet(), Rng(6), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(10), /*promiscuous=*/true);
  nic.deliver(make_frame(pool, 1400, 1, 1, 99), 100);
  queue.run();
  EXPECT_EQ(vf.rx_pending(), 1u);
  pktio::Mbuf* out[1];
  vf.backend_rx(out, 1);
  pktio::Mempool::release(out[0]);
}

TEST_F(NicFixture, RxTimestampAssigned) {
  PhysNic nic(queue, quiet(), Rng(7), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(2));
  nic.deliver(make_frame(pool, 1400, 1, 1, 2), 12345);
  queue.run();
  pktio::Mbuf* out[1];
  ASSERT_EQ(vf.backend_rx(out, 1), 1);
  EXPECT_EQ(out[0]->rx_timestamp, 12345);
  pktio::Mempool::release(out[0]);
}

TEST_F(NicFixture, RingOverflowCountsImissed) {
  NicConfig cfg = quiet();
  cfg.rx_ring_pkts = 4;
  PhysNic nic(queue, cfg, Rng(8), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(2));
  for (int i = 0; i < 10; ++i) {
    nic.deliver(make_frame(pool, 1400, i, 1, 2), 1000 + i * 280);
    queue.run();
  }
  EXPECT_EQ(vf.imissed(), 6u);
  EXPECT_EQ(vf.rx_pending(), 4u);
  pktio::Mbuf* out[8];
  const auto n = vf.backend_rx(out, 8);
  for (std::uint16_t i = 0; i < n; ++i) pktio::Mempool::release(out[i]);
}

TEST_F(NicFixture, RxWakeupFiresOnEmptyToNonEmpty) {
  PhysNic nic(queue, quiet(), Rng(9), egress);
  Vf& vf = nic.add_vf(pktio::mac_for_node(2));
  int wakeups = 0;
  vf.set_rx_wakeup([&] { ++wakeups; });
  nic.deliver(make_frame(pool, 1400, 1, 1, 2), 100);
  nic.deliver(make_frame(pool, 1400, 2, 1, 2), 500);
  queue.run();
  EXPECT_EQ(wakeups, 1);  // second enqueue found a non-empty ring
  pktio::Mbuf* out[2];
  vf.backend_rx(out, 2);
  pktio::Mempool::release(out[0]);
  pktio::Mempool::release(out[1]);
  nic.deliver(make_frame(pool, 1400, 3, 1, 2), queue.now() + 100);
  queue.run();
  EXPECT_EQ(wakeups, 2);
  vf.backend_rx(out, 1);
  pktio::Mempool::release(out[0]);
}

TEST_F(NicFixture, SharedVfsContendOnOneWire) {
  PhysNic nic(queue, quiet(), Rng(10), egress);
  Vf& a = nic.add_vf(pktio::mac_for_node(1));
  Vf& b = nic.add_vf(pktio::mac_for_node(2));
  queue.run_until(100);
  pktio::Mbuf* ba[1] = {make_frame(pool, 1400, 10)};
  pktio::Mbuf* bb[1] = {make_frame(pool, 1400, 20)};
  a.backend_tx(ba, 1);
  b.backend_tx(bb, 1);
  queue.run();
  ASSERT_EQ(sink.deliveries.size(), 2u);
  // Both VFs share the physical serializer: frames are spaced by it.
  EXPECT_EQ(sink.deliveries[1].wire_time - sink.deliveries[0].wire_time, 112);
}

}  // namespace
}  // namespace choir::net
