// NIC device model: a physical function with one or more SR-IOV virtual
// functions.
//
// A FABRIC "dedicated" NIC is a PhysNic with a single VF and quiet
// timing parameters; a "shared" NIC is the same PhysNic carrying several
// VFs — the experiment's VF plus, in the noisy runs, a VF blasted by the
// background-traffic source. Everything contends on the shared TxPort
// (egress serialization) and the shared RxPipeline (stall/drain and
// staging buffer), which is precisely the sharing the paper studies.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/config.hpp"
#include "net/link.hpp"
#include "net/rx_pipeline.hpp"
#include "net/tx_port.hpp"
#include "pktio/ethdev.hpp"
#include "pktio/headers.hpp"
#include "pktio/ring.hpp"

namespace choir::net {

class PhysNic;

/// One SR-IOV virtual function: the device a DPDK application binds.
class Vf : public pktio::PortBackend {
 public:
  Vf(PhysNic& phys, pktio::MacAddress mac, std::size_t rx_ring_pkts,
     std::size_t tx_ring_pkts, bool promiscuous, const std::string& label)
      : phys_(phys), mac_(mac), rx_ring_(rx_ring_pkts),
        tx_ring_(tx_ring_pkts), promiscuous_(promiscuous),
        tm_rx_ring_hwm_(telemetry::gauge(label + ".rx_ring_hwm")),
        tm_imissed_(telemetry::counter(label + ".imissed")) {}

  /// DPDK-style transmit: the burst is accepted into the descriptor ring
  /// (as far as it has room — callers see partial acceptance and retry,
  /// exactly like rte_eth_tx_burst) and pulled by DMA after the modeled
  /// delay (Section 2.3), one event per accepted burst.
  std::uint16_t backend_tx(pktio::Mbuf* const* pkts, std::uint16_t n) override;

  /// DPDK-style receive from this VF's ring.
  std::uint16_t backend_rx(pktio::Mbuf** pkts, std::uint16_t n) override;

  /// Rate-paced transmit used by the traffic generators: the frame hits
  /// the wire no earlier than `not_before` (models Pktgen's rate
  /// control / a hardware rate limiter). No DMA-pull jitter.
  void tx_paced(pktio::Mbuf* pkt, Ns not_before);

  const pktio::MacAddress& mac() const { return mac_; }
  bool promiscuous() const { return promiscuous_; }
  std::size_t rx_pending() const { return rx_ring_.size(); }
  std::uint64_t imissed() const { return imissed_; }
  /// Highest occupancy the receive ring ever reached.
  std::size_t rx_ring_high_water() const { return rx_ring_.high_water(); }

  /// Simulator-side hook fired when the rx ring transitions from empty to
  /// non-empty. Applications use it to resume their poll loops instead of
  /// simulating every idle busy-poll iteration; it carries no packet data
  /// and adds no timing side channel (polls still land on the poll grid).
  void set_rx_wakeup(std::function<void()> fn) { rx_wakeup_ = std::move(fn); }

 private:
  friend class PhysNic;
  void enqueue_rx(pktio::Mbuf* pkt);

  PhysNic& phys_;
  pktio::MacAddress mac_;
  pktio::Ring rx_ring_;
  pktio::Ring tx_ring_;  ///< descriptor FIFO: accepted, not yet pulled
  bool promiscuous_;
  std::uint64_t imissed_ = 0;
  Ns last_pull_ = 0;  ///< DMA descriptor-ring FIFO ordering
  std::function<void()> rx_wakeup_;
  telemetry::GaugeHandle tm_rx_ring_hwm_;
  telemetry::CounterHandle tm_imissed_;
};

/// The physical function: owns the wire-side TX port and RX pipeline.
class PhysNic : public Endpoint {
 public:
  PhysNic(sim::EventQueue& queue, const NicConfig& config, Rng rng,
          Link& egress)
      : queue_(queue),
        config_(config),
        rng_(rng.split(0x4e4943)),
        tx_port_(queue, egress, config.line_rate, config.tx_queue_pkts),
        rx_pipeline_(queue, config, rng.split(0x5250)) {
    if (telemetry::Registry::current() != nullptr) {
      const std::string base = "nic." + config_.name + ".";
      tm_rx_drops_ = telemetry::counter(base + "rx_drops");
      tm_rx_delivered_ = telemetry::counter(base + "rx_delivered");
      tm_dma_pull_delay_ = telemetry::histogram(base + "dma_pull_delay_ns");
      tx_port_.bind_telemetry(config_.name);
    }
  }

  /// Create a virtual function. The first VF created is also the default
  /// sink for frames matching no VF MAC when it is promiscuous.
  Vf& add_vf(pktio::MacAddress mac, bool promiscuous = false);

  /// Link-facing receive path (Endpoint).
  void deliver(pktio::Mbuf* pkt, Ns wire_time) override;

  TxPort& tx_port() { return tx_port_; }
  RxPipeline& rx_pipeline() { return rx_pipeline_; }
  const NicConfig& config() const { return config_; }
  sim::EventQueue& queue() { return queue_; }

  /// Descriptor slots currently free across all VFs of this function
  /// (wire backlog plus bursts awaiting their DMA pull).
  std::size_t tx_descriptors_free() const {
    const std::size_t used = tx_port_.backlog() + dma_in_flight_;
    return used >= config_.tx_queue_pkts ? 0 : config_.tx_queue_pkts - used;
  }

  std::uint64_t rx_drops() const { return rx_drops_; }
  std::uint64_t rx_delivered() const { return rx_delivered_; }

 private:
  friend class Vf;
  Vf* route(const pktio::Mbuf* pkt);
  Ns dma_pull_time();

  sim::EventQueue& queue_;
  NicConfig config_;
  Rng rng_;
  TxPort tx_port_;
  RxPipeline rx_pipeline_;
  std::vector<std::unique_ptr<Vf>> vfs_;
  std::size_t dma_in_flight_ = 0;  ///< accepted, not yet pulled
  std::uint64_t rx_drops_ = 0;
  std::uint64_t rx_delivered_ = 0;
  telemetry::CounterHandle tm_rx_drops_;
  telemetry::CounterHandle tm_rx_delivered_;
  telemetry::HistogramHandle tm_dma_pull_delay_;
};

}  // namespace choir::net
