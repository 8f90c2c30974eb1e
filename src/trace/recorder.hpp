// Capture daemon: the simulated counterpart of dpdkcap on the recorder
// host.
//
// Continuously drains its port via the shared poll-loop model and, while
// armed, appends every received frame to the active Capture. Capture
// order is ring (arrival) order; the timestamp recorded is the NIC
// hardware timestamp carried on the mbuf.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flow/flow_table.hpp"
#include "net/poll_loop.hpp"
#include "pktio/ethdev.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/capture.hpp"

namespace choir::trace {

class CaptureDaemon {
 public:
  /// `flow_shards` > 0 turns on in-path flow classification: every
  /// recorded frame is classified into a persistent FlowTable, so that
  /// the per-shard `flow.<shard>.{packets,bytes,flows}` counters count
  /// packets, bytes and first-seen flows live, as the run records. The
  /// evaluation classifies each closed capture on its own
  /// (flow_classify.hpp). Strictly an observer: one predictable branch
  /// when off, and never any effect on the sim.
  CaptureDaemon(sim::EventQueue& queue, net::Vf& vf,
                net::PollLoopConfig poll = {}, Rng rng = Rng{0xCAFE},
                const std::string& label = "recorder", int flow_shards = 0)
      : queue_(queue),
        dev_(label, vf),
        loop_(queue, vf, poll, rng, label),
        tm_drain_batch_pkts_(telemetry::histogram(label + ".drain_batch_pkts")),
        tm_track_(telemetry::track(label)),
        flow_shards_(flow_shards) {
    for (int s = 0; s < flow_shards_; ++s) {
      const std::string prefix = "flow." + std::to_string(s) + ".";
      tm_flow_packets_.push_back(telemetry::counter(prefix + "packets"));
      tm_flow_bytes_.push_back(telemetry::counter(prefix + "bytes"));
      tm_flow_new_.push_back(telemetry::counter(prefix + "flows"));
    }
    exposure_.counter(label + ".captured", recorded_);
    exposure_.counter(label + ".discarded", discarded_);
    loop_.set_handler([this] { return drain(); });
    loop_.start();
  }

  /// Arm recording into `out` during [from, until). Frames polled outside
  /// any window are drained and discarded, as dpdkcap does when idle.
  void arm(Ns from, Ns until, Capture* out);

  /// Frames discarded while disarmed.
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t recorded() const { return recorded_; }
  const pktio::EthDevStats& port_stats() const { return dev_.stats(); }

  /// Recorded frames without a flow key (counted iff flow_shards > 0).
  std::uint64_t flow_unclassified() const { return flow_unclassified_; }

 private:
  bool drain();

  sim::EventQueue& queue_;
  pktio::EthDev dev_;
  net::PollLoop loop_;
  Capture* active_ = nullptr;
  std::uint64_t discarded_ = 0;
  std::uint64_t recorded_ = 0;
  telemetry::HistogramHandle tm_drain_batch_pkts_;
  std::uint32_t tm_track_ = 0;
  // In-path flow classification (off unless flow_shards_ > 0). The table
  // assigns global dense ids; the shard only namespaces the telemetry.
  int flow_shards_ = 0;
  flow::FlowTable flow_table_;
  std::uint64_t flow_unclassified_ = 0;
  std::vector<telemetry::CounterHandle> tm_flow_packets_;
  std::vector<telemetry::CounterHandle> tm_flow_bytes_;
  std::vector<telemetry::CounterHandle> tm_flow_new_;
  telemetry::Exposure exposure_;
};

}  // namespace choir::trace
