// Busy-poll loop model shared by the DPDK-style applications.
//
// A real DPDK app spins on rx_burst forever; simulating every idle
// iteration would drown the event queue. Instead the loop runs on a poll
// grid while traffic is present (the grid period models one loop
// iteration, including the app's per-burst work) and parks when the ring
// stays empty, to be re-armed by the VF's rx-wakeup hook with a uniformly
// random loop phase — exactly the timing a continuously spinning loop
// would exhibit, minus the wasted events.
#pragma once

#include <cmath>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/nic.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::net {

struct PollLoopConfig {
  Ns interval = 800;              ///< one loop iteration (poll period)
  double jitter_sigma_ns = 30.0;  ///< per-iteration duration noise
  int idle_polls_to_park = 16;    ///< empty iterations before parking
};

class PollLoop {
 public:
  PollLoop(sim::EventQueue& queue, Vf& vf, PollLoopConfig config, Rng rng,
           const std::string& label = "poll")
      : queue_(queue), vf_(vf), config_(config), rng_(rng.split(0x504c)) {
    vf_.set_rx_wakeup([this] { wake(); });
    if (telemetry::Registry::current() != nullptr) {
      const std::string base = "poll." + label + ".";
      exposure_.counter(base + "iterations", iterations_);
      tm_wakeups_ = telemetry::counter(base + "wakeups");
      tm_parks_ = telemetry::counter(base + "parks");
      tm_track_ = telemetry::track(label);
    }
  }

  /// `on_poll` runs once per loop iteration and must drain the VF ring;
  /// it returns true if it did any work (resets the idle counter).
  void set_handler(std::function<bool()> on_poll) {
    handler_ = std::move(on_poll);
  }

  /// Begin polling (parks immediately if no traffic arrives).
  void start() {
    running_ = true;
    if (!scheduled_) schedule_next(phase_delay());
  }

  void stop() { running_ = false; }
  bool parked() const { return running_ && !scheduled_; }
  std::uint64_t iterations() const { return iterations_; }

 private:
  Ns phase_delay() {
    // Loop phase is unknown when traffic starts: uniform over one period.
    return static_cast<Ns>(rng_.uniform() * static_cast<double>(config_.interval));
  }

  void wake() {
    if (running_ && !scheduled_) {
      tm_wakeups_.add();
      if (auto* tracer = telemetry::tracer()) {
        tracer->instant("poll-wakeup", queue_.now(), tm_track_);
      }
      schedule_next(phase_delay());
    }
  }

  void schedule_next(Ns delay) {
    scheduled_ = true;
    queue_.schedule_in(delay, sim::Component::kPollLoop,
                       [this] { iterate(); });
  }

  void iterate() {
    scheduled_ = false;
    if (!running_) return;
    ++iterations_;
    const bool worked = handler_ ? handler_() : false;
    idle_streak_ = worked ? 0 : idle_streak_ + 1;
    if (idle_streak_ >= config_.idle_polls_to_park && vf_.rx_pending() == 0) {
      tm_parks_.add();
      return;  // park; the rx wakeup re-arms us
    }
    double jitter = config_.jitter_sigma_ns > 0.0
                        ? std::abs(rng_.normal(0.0, config_.jitter_sigma_ns))
                        : 0.0;
    schedule_next(config_.interval + static_cast<Ns>(jitter));
  }

  sim::EventQueue& queue_;
  Vf& vf_;
  PollLoopConfig config_;
  Rng rng_;
  std::function<bool()> handler_;
  bool running_ = false;
  bool scheduled_ = false;
  int idle_streak_ = 0;
  std::uint64_t iterations_ = 0;
  telemetry::CounterHandle tm_wakeups_;
  telemetry::CounterHandle tm_parks_;
  std::uint32_t tm_track_ = 0;
  telemetry::Exposure exposure_;
};

}  // namespace choir::net
