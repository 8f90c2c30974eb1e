// Store-and-forward Ethernet switch.
//
// Stands in for the Tofino2 (local testbed) and Cisco 5700 (FABRIC)
// devices in the paper's topologies. Forwarding is either static
// port-to-port (the paper's local switch ran "a simple ingress to egress
// port forwarding program") or by destination MAC. Each egress port has
// its own serializer and finite queue, so two ingress streams merging
// onto one egress port contend realistically — the dual-replayer
// experiment depends on that.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/config.hpp"
#include "net/link.hpp"
#include "net/tx_port.hpp"
#include "pktio/headers.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::net {

class Switch {
 public:
  // Constructor/destructor are out-of-line: PortIngress is an
  // implementation detail completed only in switch.cpp.
  Switch(sim::EventQueue& queue, const SwitchConfig& config, Rng rng);
  ~Switch();

  /// Add a port; returns its index. `egress_link` configures the cable
  /// leaving this port — connect it to the downstream device with
  /// egress_link(port).connect(...).
  std::size_t add_port(LinkConfig egress_link = {});

  /// Ingress endpoint for port `port` — hand this to the upstream link.
  Endpoint& ingress(std::size_t port);

  /// Egress cable of port `port`.
  Link& egress_link(std::size_t port) { return *ports_.at(port)->link; }

  /// Static forwarding: everything arriving on `in` leaves on `out`.
  void set_port_forward(std::size_t in, std::size_t out);

  /// MAC route: frames for `mac` leave on `port`. Consulted only when
  /// the ingress port has no static forward.
  void set_mac_route(const pktio::MacAddress& mac, std::size_t port);

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t unroutable_drops() const { return unroutable_; }
  std::uint64_t fcs_drops() const { return fcs_drops_; }
  std::uint64_t queue_drops() const;
  std::size_t port_count() const { return ports_.size(); }

 private:
  struct PortIngress;
  struct Port {
    std::unique_ptr<Link> link;        // egress cable
    std::unique_ptr<TxPort> tx;        // egress serializer + queue
    std::unique_ptr<PortIngress> ingress;
    std::optional<std::size_t> forward_to;
  };

  void on_frame(std::size_t in_port, pktio::Mbuf* pkt, Ns wire_time);
  std::optional<std::size_t> lookup(std::size_t in_port,
                                    const pktio::Mbuf* pkt) const;

  sim::EventQueue& queue_;
  SwitchConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<std::uint64_t, std::size_t> mac_table_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t fcs_drops_ = 0;
  telemetry::Exposure exposure_;
};

}  // namespace choir::net
