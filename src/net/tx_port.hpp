// Physical egress port: serialization, output queueing, tail drop.
//
// One TxPort stands for one physical transmit pipeline — a NIC's wire
// side or a switch output port. All traffic sharing the port (e.g. two
// SR-IOV virtual functions, or a replay stream plus iperf noise) contends
// here, which is where shared-NIC jitter and drops come from.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "net/link.hpp"
#include "pktio/mbuf.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::net {

class TxPort {
 public:
  TxPort(sim::EventQueue& queue, Link& link, BitsPerSec rate,
         std::size_t queue_pkts)
      : queue_(queue), link_(link), rate_(rate), queue_pkts_(queue_pkts) {}

  /// Register this port's metrics under `txport.<label>.` with the
  /// current telemetry session (no-op when none is installed). The
  /// queue-delay histogram measures how long a frame waited between
  /// submission and the start of serialization — the port's queueing
  /// contribution to end-to-end latency.
  void bind_telemetry(const std::string& label) {
    const std::string base = "txport." + label + ".";
    tm_queue_delay_ = telemetry::histogram(base + "queue_delay_ns");
    exposure_.counter(base + "drops", drops_);
    tm_backlog_hwm_ = telemetry::gauge(base + "backlog_hwm");
  }

  /// Submit a frame for transmission, no earlier than `not_before`.
  /// Serialization starts when the wire frees up; if more than
  /// `queue_pkts` frames are already waiting, the frame is tail-dropped
  /// and false is returned. Ownership passes to the port either way.
  bool submit(pktio::Mbuf* pkt, Ns not_before) {
    const Ns now = queue_.now();
    if (in_flight_ >= queue_pkts_) {
      ++drops_;
      pktio::Mempool::release(pkt);
      return false;
    }
    Ns start = busy_until_ > not_before ? busy_until_ : not_before;
    if (start < now) start = now;
    const Ns end = start + serialization_ns(pkt->frame.wire_len, rate_);
    tm_queue_delay_.record(start - (not_before > now ? not_before : now));
    busy_until_ = end;
    ++in_flight_;
    tm_backlog_hwm_.set_max(static_cast<std::int64_t>(in_flight_));
    ++tx_frames_;
    tx_bytes_ += pkt->frame.wire_len;
    // Completion: the frame's last bit leaves at `end`; hand to the link
    // and free the queue slot.
    queue_.schedule_at(end, sim::Component::kTxPort, [this, pkt, end] {
      --in_flight_;
      link_.send(pkt, end);
    });
    return true;
  }

  bool submit(pktio::Mbuf* pkt) { return submit(pkt, queue_.now()); }

  /// When the wire will next be idle.
  Ns busy_until() const { return busy_until_; }
  std::size_t backlog() const { return in_flight_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t frames_sent() const { return tx_frames_; }
  std::uint64_t bytes_sent() const { return tx_bytes_; }
  BitsPerSec rate() const { return rate_; }

 private:
  sim::EventQueue& queue_;
  Link& link_;
  BitsPerSec rate_;
  std::size_t queue_pkts_;
  Ns busy_until_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t tx_bytes_ = 0;
  telemetry::HistogramHandle tm_queue_delay_;
  telemetry::GaugeHandle tm_backlog_hwm_;
  telemetry::Exposure exposure_;
};

}  // namespace choir::net
