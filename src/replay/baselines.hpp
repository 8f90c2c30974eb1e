// Baseline replayers, for comparison against Choir's TSC-paced engine
// (Section 9 of the paper).
//
//  - SleepReplayer: tcpreplay-style pacing through OS timer sleeps. The
//    pacing quantum is the kernel timer granularity; everything due in
//    the same quantum is transmitted at the wakeup.
//  - BusyWaitReplayer: spins on a microsecond-resolution wall-clock read
//    (gettimeofday pacing) — finer than sleeping, coarser than the TSC.
//
// Both replay the same zero-copy Recording that Choir does, through the
// same NIC models, so differences in measured consistency are pacing
// differences only.
#pragma once

#include <cstdint>
#include <string>

#include "choir/recording.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/nic.hpp"
#include "pktio/ethdev.hpp"
#include "replay/replayer.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::replay {

struct ReplayStats {
  std::uint64_t bursts = 0;
  std::uint64_t packets = 0;
  std::uint64_t replays = 0;
};

/// Common plumbing: walk a Recording and re-transmit bursts at times
/// chosen by the concrete pacing policy.
class PacedReplayerBase : public Replayer {
 public:
  PacedReplayerBase(sim::EventQueue& queue, sim::NodeClock& clock,
                    net::Vf& out, const app::Recording& recording,
                    const std::string& label = "replay.baseline")
      : queue_(queue), clock_(clock), out_dev_(label + "-out", out),
        recording_(recording) {
    if (telemetry::Registry::current() != nullptr) {
      tm_bursts_ = telemetry::counter(label + ".replayed_bursts");
      tm_packets_ = telemetry::counter(label + ".replayed_packets");
      tm_tx_retries_ = telemetry::counter(label + ".tx_retries");
      tm_pacing_delay_ = telemetry::histogram(label + ".pacing_delay_ns");
    }
  }
  void schedule_replay(Ns wall_start) override;

  bool active() const { return active_; }
  const ReplayStats& stats() const { return stats_; }

 protected:
  /// Pacing policy: actual emission time for a burst whose ideal time is
  /// `target`. Must be monotone in successive calls.
  virtual Ns emission_time(Ns target) = 0;

  sim::EventQueue& queue_;
  sim::NodeClock& clock_;

 private:
  void step();
  void emit_from(std::size_t offset);

  pktio::EthDev out_dev_;
  const app::Recording& recording_;
  bool active_ = false;
  std::size_t cursor_ = 0;
  Ns true_start_ = 0;
  std::uint64_t first_tsc_ = 0;
  Ns last_emission_ = 0;
  ReplayStats stats_;
  telemetry::CounterHandle tm_bursts_;
  telemetry::CounterHandle tm_packets_;
  telemetry::CounterHandle tm_tx_retries_;
  /// Emission minus ideal target: how far the pacing policy itself
  /// pushes each burst off the recorded timeline.
  telemetry::HistogramHandle tm_pacing_delay_;
};

/// tcpreplay-style sleeping replayer.
class SleepReplayer : public PacedReplayerBase {
 public:
  struct Config {
    Ns timer_quantum = microseconds(50);  ///< kernel timer granularity
    double wakeup_mu_log_ns = 8.0;        ///< lognormal wakeup latency
    double wakeup_sigma_log = 0.8;
  };

  SleepReplayer(sim::EventQueue& queue, sim::NodeClock& clock, net::Vf& out,
                const app::Recording& recording, Config config, Rng rng)
      : PacedReplayerBase(queue, clock, out, recording, "replay.sleep"),
        config_(config), rng_(rng.split(0x534c)) {}

 protected:
  Ns emission_time(Ns target) override {
    // Sleep until the next timer edge at or after the target, plus
    // scheduler wakeup latency.
    const Ns quantum = config_.timer_quantum;
    const Ns edge = ((target + quantum - 1) / quantum) * quantum;
    const auto wakeup = static_cast<Ns>(
        rng_.lognormal(config_.wakeup_mu_log_ns, config_.wakeup_sigma_log));
    return edge + wakeup;
  }

 private:
  Config config_;
  Rng rng_;
};

/// Busy-waiting replayer on a microsecond clock source.
class BusyWaitReplayer : public PacedReplayerBase {
 public:
  struct Config {
    Ns clock_resolution = microseconds(1);  ///< gettimeofday resolution
    double check_ns = 30.0;                 ///< read+compare loop cost
  };

  BusyWaitReplayer(sim::EventQueue& queue, sim::NodeClock& clock,
                   net::Vf& out, const app::Recording& recording,
                   Config config, Rng rng)
      : PacedReplayerBase(queue, clock, out, recording, "replay.busywait"),
        config_(config), rng_(rng.split(0x4257)) {}

 protected:
  Ns emission_time(Ns target) override {
    // The loop exits at the first clock tick at or after the target.
    const Ns res = config_.clock_resolution;
    const Ns tick = ((target + res - 1) / res) * res;
    return tick + static_cast<Ns>(rng_.uniform() * config_.check_ns);
  }

 private:
  Config config_;
  Rng rng_;
};

}  // namespace choir::replay
