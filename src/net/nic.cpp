#include "net/nic.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace choir::net {

// --- Vf -------------------------------------------------------------

std::uint16_t Vf::backend_tx(pktio::Mbuf* const* pkts, std::uint16_t n) {
  if (n == 0) return 0;
  // Backpressure: only as many descriptors as the queue has free. The
  // caller keeps ownership of the rest and retries, as with
  // rte_eth_tx_burst.
  const auto accepted = static_cast<std::uint16_t>(
      std::min<std::size_t>(n, phys_.tx_descriptors_free()));
  if (accepted == 0) return 0;
  // The descriptor ring is FIFO: a later burst is never pulled before an
  // earlier one, whatever the per-pull jitter draws. One DMA pull per
  // burst: the whole burst becomes wire-eligible at the same instant and
  // serializes back-to-back, as on real hardware.
  const Ns pull = std::max(phys_.dma_pull_time(), last_pull_);
  last_pull_ = pull;
  // Effective pull delay includes FIFO waiting behind earlier bursts.
  phys_.tm_dma_pull_delay_.record(pull - phys_.queue_.now());
  // Pulls fire in FIFO order, so each pull pops its own burst.
  phys_.dma_in_flight_ += accepted;
  tx_ring_.enqueue_burst(pkts, accepted);
  phys_.queue_.schedule_at(pull, sim::Component::kNicTx,
                           [this, accepted, pull] {
                             for (std::uint16_t i = 0; i < accepted; ++i) {
                               --phys_.dma_in_flight_;
                               phys_.tx_port_.submit(tx_ring_.dequeue(), pull);
                             }
                           });
  return accepted;
}

std::uint16_t Vf::backend_rx(pktio::Mbuf** pkts, std::uint16_t n) {
  return rx_ring_.dequeue_burst(pkts, n);
}

void Vf::tx_paced(pktio::Mbuf* pkt, Ns not_before) {
  const Ns now = phys_.queue_.now();
  if (not_before <= now) {
    phys_.tx_port_.submit(pkt, not_before);
    return;
  }
  phys_.queue_.schedule_at(not_before, sim::Component::kNicTx,
                           [this, pkt, not_before] {
                             phys_.tx_port_.submit(pkt, not_before);
                           });
}

void Vf::enqueue_rx(pktio::Mbuf* pkt) {
  const bool was_empty = rx_ring_.empty();
  if (!rx_ring_.enqueue(pkt)) {
    ++imissed_;
    tm_imissed_.add();
    pktio::Mempool::release(pkt);
    return;
  }
  tm_rx_ring_hwm_.set_max(static_cast<std::int64_t>(rx_ring_.size()));
  if (was_empty && rx_wakeup_) rx_wakeup_();
}

// --- PhysNic ----------------------------------------------------------

Vf& PhysNic::add_vf(pktio::MacAddress mac, bool promiscuous) {
  const std::string label =
      "nic." + config_.name + ".vf" + std::to_string(vfs_.size());
  vfs_.push_back(std::make_unique<Vf>(*this, mac, config_.rx_ring_pkts,
                                      config_.tx_queue_pkts, promiscuous,
                                      label));
  return *vfs_.back();
}

Ns PhysNic::dma_pull_time() {
  double jitter = 0.0;
  if (config_.dma_pull_jitter_sigma_ns > 0.0) {
    jitter = std::abs(rng_.normal(0.0, config_.dma_pull_jitter_sigma_ns));
  }
  return queue_.now() + config_.dma_pull_base + static_cast<Ns>(jitter);
}

Vf* PhysNic::route(const pktio::Mbuf* pkt) {
  const auto parsed = pktio::parse_eth_ipv4_udp(pkt->frame);
  if (parsed.valid) {
    for (const auto& vf : vfs_) {
      if (vf->mac().bytes == parsed.flow.dst_mac.bytes) return vf.get();
    }
  }
  for (const auto& vf : vfs_) {
    if (vf->promiscuous()) return vf.get();
  }
  return nullptr;
}

void PhysNic::deliver(pktio::Mbuf* pkt, Ns wire_time) {
  Vf* vf = route(pkt);
  if (vf == nullptr) {
    ++rx_drops_;
    tm_rx_drops_.add();
    pktio::Mempool::release(pkt);
    return;
  }
  const RxPipeline::Admission admission =
      rx_pipeline_.admit(wire_time, pkt->frame.wire_len);
  if (!admission.accepted) {
    ++rx_drops_;
    tm_rx_drops_.add();
    pktio::Mempool::release(pkt);
    return;
  }
  pkt->rx_timestamp = admission.timestamp;
  ++rx_delivered_;
  tm_rx_delivered_.add();
  if (admission.release <= queue_.now()) {
    vf->enqueue_rx(pkt);
    return;
  }
  queue_.schedule_at(admission.release, sim::Component::kNicRx,
                     [vf, pkt] { vf->enqueue_rx(pkt); });
}

}  // namespace choir::net
