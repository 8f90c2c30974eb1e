// Receive-side pipeline of a physical NIC: stall-and-drain batching,
// staging-buffer occupancy, and hardware timestamping.
//
// The stall process is the centrepiece of the FABRIC reproduction: the
// datapath (vCPU, hypervisor, PF scheduler) freezes for a lognormal
// duration, arrivals accumulate in the staging buffer, then drain
// back-to-back at line rate. Order is preserved — which is exactly why
// the paper measures violent IAT variance on FABRIC while O stays 0 —
// and sufficiently long stalls overflow the buffer, producing the drops
// seen only in the noisy shared-NIC runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/config.hpp"
#include "net/wander.hpp"
#include "sim/event_queue.hpp"

namespace choir::net {

class RxPipeline {
 public:
  RxPipeline(sim::EventQueue& queue, const NicConfig& config, Rng rng)
      : queue_(queue),
        config_(config),
        rng_(rng.split(0x5258)),
        wander_(config.wander_sigma_ns, config.wander_rho,
                config.wander_interval, rng.split(0x574e)) {
    if (config_.stall_rate_hz > 0.0) schedule_next_stall();
  }

  struct Admission {
    bool accepted = false;
    Ns release = 0;    ///< when the packet leaves the pipeline
    Ns timestamp = 0;  ///< hardware timestamp it carries
  };

  /// Admit a frame whose last bit hit the wire at `wire_time`.
  Admission admit(Ns wire_time, std::uint32_t wire_len) {
    Admission out;
    Ns release = wire_time;
    if (stall_until_ > release) release = stall_until_;
    const Ns drain_gap = serialization_ns(wire_len, config_.line_rate);
    if (last_release_ + drain_gap > release) {
      release = last_release_ + drain_gap;
    }

    // Frames whose release lies in the future occupy the staging buffer;
    // a stall long enough to fill it tail-drops new arrivals.
    if (release > wire_time) {
      if (staged_ >= config_.rx_buffer_pkts) {
        ++overflow_drops_;
        return out;  // accepted = false
      }
      ++staged_;
      queue_.schedule_at(release, sim::Component::kRxPipeline,
                         [this] { --staged_; });
    }

    last_release_ = release;
    out.accepted = true;
    out.release = release;
    out.timestamp = stamp(release);
    return out;
  }

  std::uint64_t overflow_drops() const { return overflow_drops_; }
  Ns stalled_until() const { return stall_until_; }
  std::uint64_t stall_events() const { return stall_events_; }
  std::size_t staged() const { return staged_; }

 private:
  Ns stamp(Ns release) {
    double t = static_cast<double>(release);
    t += wander_.value(release);
    if (config_.ts_noise_sigma_ns > 0.0) {
      t += rng_.normal(0.0, config_.ts_noise_sigma_ns);
    }
    const Ns quantum = config_.ts_quantum_ns > 0 ? config_.ts_quantum_ns : 1;
    return (static_cast<Ns>(t) / quantum) * quantum;
  }

  void schedule_next_stall() {
    const double gap_s = rng_.exponential(1.0 / config_.stall_rate_hz);
    const Ns at = queue_.now() + static_cast<Ns>(gap_s * kNsPerSec) + 1;
    queue_.schedule_at(at, sim::Component::kRxPipeline, [this] {
      double duration =
          rng_.lognormal(config_.stall_mu_log_ns, config_.stall_sigma_log);
      if (config_.stall_max_ns > 0) {
        duration = std::min(duration,
                            static_cast<double>(config_.stall_max_ns));
      }
      const Ns until = queue_.now() + static_cast<Ns>(duration);
      if (until > stall_until_) stall_until_ = until;
      ++stall_events_;
      schedule_next_stall();
    });
  }

  sim::EventQueue& queue_;
  NicConfig config_;
  Rng rng_;
  WanderProcess wander_;
  Ns stall_until_ = 0;
  /// Release time of the previous frame; sentinel low so the very first
  /// frame is never artificially spaced by a drain gap.
  Ns last_release_ = std::numeric_limits<Ns>::min() / 4;
  std::size_t staged_ = 0;
  std::uint64_t overflow_drops_ = 0;
  std::uint64_t stall_events_ = 0;
};

}  // namespace choir::net
