// Point-to-point link and the endpoint interface devices implement.
#pragma once

#include "common/units.hpp"
#include "net/config.hpp"
#include "pktio/mbuf.hpp"
#include "sim/event_queue.hpp"

namespace choir::net {

/// Anything a link can deliver frames to (a NIC's receive side, a switch
/// port). `wire_time` is when the last bit arrived (store-and-forward).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void deliver(pktio::Mbuf* pkt, Ns wire_time) = 0;
};

class Link;

/// Fault-injection hook a link consults for every frame entering the
/// wire (src/fault installs these; no hook means zero overhead beyond
/// one null check). The hook may consume the frame (drop/corrupt-path),
/// mutate it, stretch its flight time, or inject extra deliveries
/// through Link::deliver_at (duplication).
class LinkFaultHook {
 public:
  virtual ~LinkFaultHook() = default;
  /// Return false to consume the frame (the link releases it); on true,
  /// delivery is scheduled `extra_delay` ns after the nominal arrival.
  virtual bool on_transmit(Link& link, pktio::Mbuf* pkt, Ns wire_departure,
                           Ns& extra_delay) = 0;
};

/// Unidirectional link. The transmit side (TxPort) calls send() at the
/// instant the last bit leaves the wire; propagation delay is added here.
class Link {
 public:
  Link(sim::EventQueue& queue, LinkConfig config = {})
      : queue_(queue), config_(config) {}

  void connect(Endpoint& sink) { sink_ = &sink; }
  bool connected() const { return sink_ != nullptr; }

  void send(pktio::Mbuf* pkt, Ns wire_departure) {
    // Unconnected links blackhole traffic, like an unplugged cable.
    if (sink_ == nullptr) {
      pktio::Mempool::release(pkt);
      return;
    }
    Ns extra_delay = 0;
    if (fault_ != nullptr &&
        !fault_->on_transmit(*this, pkt, wire_departure, extra_delay)) {
      pktio::Mempool::release(pkt);
      return;
    }
    deliver_at(pkt, wire_departure + config_.propagation + extra_delay);
  }

  /// Schedule a raw delivery at absolute time `at` (>= now). The fault
  /// layer uses this to land duplicated frames; normal traffic goes
  /// through send().
  void deliver_at(pktio::Mbuf* pkt, Ns at) {
    if (sink_ == nullptr) {
      pktio::Mempool::release(pkt);
      return;
    }
    Endpoint* sink = sink_;
    queue_.schedule_at(at, sim::Component::kLink,
                       [sink, pkt, at] { sink->deliver(pkt, at); });
  }

  /// Install (or clear, with nullptr) the fault hook.
  void set_fault(LinkFaultHook* hook) { fault_ = hook; }

  const LinkConfig& config() const { return config_; }

 private:
  sim::EventQueue& queue_;
  LinkConfig config_;
  Endpoint* sink_ = nullptr;
  LinkFaultHook* fault_ = nullptr;
};

}  // namespace choir::net
