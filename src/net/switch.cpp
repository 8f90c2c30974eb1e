#include "net/switch.hpp"

#include <cmath>

#include "common/expect.hpp"
#include "pktio/mbuf.hpp"

namespace choir::net {

namespace {
std::uint64_t mac_key(const pktio::MacAddress& mac) {
  std::uint64_t k = 0;
  for (const std::uint8_t b : mac.bytes) k = (k << 8) | b;
  return k;
}
}  // namespace

struct Switch::PortIngress : Endpoint {
  Switch* parent;
  std::size_t index;
  PortIngress(Switch* p, std::size_t i) : parent(p), index(i) {}
  void deliver(pktio::Mbuf* pkt, Ns wire_time) override {
    parent->on_frame(index, pkt, wire_time);
  }
};

Switch::Switch(sim::EventQueue& queue, const SwitchConfig& config, Rng rng)
    : queue_(queue), config_(config), rng_(rng.split(0x5357)) {
  tm_forwarded_ = telemetry::counter("switch.forwarded");
  tm_unroutable_ = telemetry::counter("switch.unroutable_drops");
  tm_fcs_drops_ = telemetry::counter("switch.fcs_drops");
}

Switch::~Switch() = default;

Endpoint& Switch::ingress(std::size_t port) {
  return *ports_.at(port)->ingress;
}

std::size_t Switch::add_port(LinkConfig egress_link) {
  auto port = std::make_unique<Port>();
  port->link = std::make_unique<Link>(queue_, egress_link);
  port->tx = std::make_unique<TxPort>(queue_, *port->link, config_.port_rate,
                                      config_.port_queue_pkts);
  if (telemetry::Registry::current() != nullptr) {
    port->tx->bind_telemetry("switch.port" + std::to_string(ports_.size()));
  }
  port->ingress = std::make_unique<PortIngress>(this, ports_.size());
  ports_.push_back(std::move(port));
  return ports_.size() - 1;
}

void Switch::set_port_forward(std::size_t in, std::size_t out) {
  CHOIR_EXPECT(in < ports_.size() && out < ports_.size(),
               "port forward references missing port");
  ports_[in]->forward_to = out;
}

void Switch::set_mac_route(const pktio::MacAddress& mac, std::size_t port) {
  CHOIR_EXPECT(port < ports_.size(), "MAC route references missing port");
  mac_table_[mac_key(mac)] = port;
}

std::optional<std::size_t> Switch::lookup(std::size_t in_port,
                                          const pktio::Mbuf* pkt) const {
  if (ports_[in_port]->forward_to) return ports_[in_port]->forward_to;
  const auto parsed = pktio::parse_eth_ipv4_udp(pkt->frame);
  if (parsed.valid) {
    const auto it = mac_table_.find(mac_key(parsed.flow.dst_mac));
    if (it != mac_table_.end()) return it->second;
  }
  return std::nullopt;
}

void Switch::on_frame(std::size_t in_port, pktio::Mbuf* pkt, Ns wire_time) {
  // A frame with a bad FCS is discarded by the receiving MAC after
  // occupying the wire — the fate MoonGen-style filler frames rely on.
  if (pkt->frame.invalid_fcs) {
    ++fcs_drops_;
    tm_fcs_drops_.add();
    pktio::Mempool::release(pkt);
    return;
  }
  const auto out = lookup(in_port, pkt);
  if (!out) {
    ++unroutable_;
    tm_unroutable_.add();
    pktio::Mempool::release(pkt);
    return;
  }
  ++forwarded_;
  tm_forwarded_.add();
  double jitter = 0.0;
  if (config_.processing_jitter_sigma_ns > 0.0) {
    jitter = std::abs(rng_.normal(0.0, config_.processing_jitter_sigma_ns));
  }
  const Ns ready =
      wire_time + config_.processing_delay + static_cast<Ns>(jitter);
  TxPort* tx = ports_[*out]->tx.get();
  queue_.schedule_at(ready, sim::Component::kSwitch,
                     [tx, pkt, ready] { tx->submit(pkt, ready); });
}

std::uint64_t Switch::queue_drops() const {
  std::uint64_t sum = 0;
  for (const auto& p : ports_) sum += p->tx->drops();
  return sum;
}

}  // namespace choir::net
