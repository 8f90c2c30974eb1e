// Port abstraction: DPDK's rte_eth burst API over a pluggable backend.
//
// Applications (Choir, the generators, the recorder) speak rx_burst /
// tx_burst against an EthDev and never see the device model behind it.
// The backend — a simulated NIC, a loopback, a test double — supplies the
// actual packet motion and timing. This mirrors how a DPDK app is
// insulated from the PMD under it, and is what lets the whole application
// layer be tested without the network simulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "pktio/mbuf.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::pktio {

/// Maximum burst size Choir uses, per the paper's implementation section.
inline constexpr std::uint16_t kMaxBurst = 64;

/// Device-model side of a port.
class PortBackend {
 public:
  virtual ~PortBackend() = default;

  /// Accept up to n buffers for transmission; returns how many the device
  /// took (the rest stay with the caller, as with rte_eth_tx_burst).
  virtual std::uint16_t backend_tx(Mbuf* const* pkts, std::uint16_t n) = 0;

  /// Produce up to n received buffers.
  virtual std::uint16_t backend_rx(Mbuf** pkts, std::uint16_t n) = 0;
};

/// Fault-injection hook for a port (src/fault installs these). Each
/// burst's size is passed through the hook before reaching the backend:
/// returning 0 models a stalled queue (RX: frames stay in the ring and
/// back up; TX: the caller sees total rejection, exactly as with a hung
/// DMA engine), returning less than `n` truncates the burst.
class PortFaultHook {
 public:
  virtual ~PortFaultHook() = default;
  virtual std::uint16_t clamp_rx(std::uint16_t n) = 0;
  virtual std::uint16_t clamp_tx(std::uint16_t n) = 0;
};

struct EthDevStats {
  std::uint64_t ipackets = 0;  ///< delivered to the application
  std::uint64_t opackets = 0;  ///< accepted for transmit
  std::uint64_t ibytes = 0;
  std::uint64_t obytes = 0;
  std::uint64_t tx_rejected = 0;  ///< offered but not accepted by device
};

class EthDev {
 public:
  EthDev(std::string name, PortBackend& backend)
      : name_(std::move(name)), backend_(&backend) {
    if (telemetry::Registry::current() != nullptr) {
      const std::string base = "port." + name_ + ".";
      exposure_.counter(base + "rx_packets", stats_.ipackets);
      exposure_.counter(base + "rx_bytes", stats_.ibytes);
      exposure_.counter(base + "tx_packets", stats_.opackets);
      exposure_.counter(base + "tx_bytes", stats_.obytes);
      exposure_.counter(base + "tx_rejected", stats_.tx_rejected);
      tm_rx_bursts_ = telemetry::counter(base + "rx_bursts");
      tm_tx_bursts_ = telemetry::counter(base + "tx_bursts");
      tm_tx_burst_pkts_ = telemetry::histogram(base + "tx_burst_pkts");
    }
  }

  /// Receive a burst; fills pkts[0..ret) and updates stats.
  std::uint16_t rx_burst(Mbuf** pkts, std::uint16_t n) {
    if (fault_ != nullptr) {
      n = std::min(n, fault_->clamp_rx(n));
      if (n == 0) return 0;
    }
    const std::uint16_t got = backend_->backend_rx(pkts, n);
    for (std::uint16_t i = 0; i < got; ++i) {
      ++stats_.ipackets;
      stats_.ibytes += pkts[i]->frame.wire_len;
    }
    if (got > 0) tm_rx_bursts_.add();
    return got;
  }

  /// Transmit a burst; returns how many buffers the device accepted.
  /// Ownership of accepted buffers passes to the device.
  std::uint16_t tx_burst(Mbuf* const* pkts, std::uint16_t n) {
    std::uint16_t offered = n;
    if (fault_ != nullptr) offered = std::min(n, fault_->clamp_tx(n));
    const std::uint16_t sent =
        offered > 0 ? backend_->backend_tx(pkts, offered) : 0;
    for (std::uint16_t i = 0; i < sent; ++i) {
      ++stats_.opackets;
      stats_.obytes += pkts[i]->frame.wire_len;
    }
    stats_.tx_rejected += n - sent;
    if (sent > 0) {
      tm_tx_bursts_.add();
      // Burst-size distribution: small accepted bursts under load mean
      // the device (not the app) is the bottleneck.
      tm_tx_burst_pkts_.record(sent);
    }
    return sent;
  }

  const EthDevStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Install (or clear, with nullptr) the fault hook.
  void set_fault(PortFaultHook* hook) { fault_ = hook; }

 private:
  std::string name_;
  PortBackend* backend_;
  PortFaultHook* fault_ = nullptr;
  EthDevStats stats_;
  // Burst counts have no stats_ field, so they keep their own handles.
  telemetry::CounterHandle tm_rx_bursts_;
  telemetry::CounterHandle tm_tx_bursts_;
  telemetry::HistogramHandle tm_tx_burst_pkts_;
  telemetry::Exposure exposure_;  ///< stats_ as the port.<name>.* counters
};

}  // namespace choir::pktio
