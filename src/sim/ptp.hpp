// Precision Time Protocol (IEEE 1588) synchronization model.
//
// On FABRIC, VMs synchronize their system clocks to a GPS-disciplined
// grandmaster through the host's NIC and the ptp_kvm driver; the paper
// reports residual offsets in the tens of nanoseconds. We model the whole
// servo loop as: every `interval`, the slave's system-clock offset is
// re-pulled to `master_offset + N(0, residual_sigma)`; between syncs it
// drifts at the clock's native ppm rate.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"

namespace choir::sim {

struct PtpConfig {
  Ns interval = milliseconds(125);   ///< sync message cadence
  double residual_sigma_ns = 20.0;   ///< post-servo offset error (1 sigma)
  double master_offset_ns = 0.0;     ///< systematic asymmetry, if any
};

/// Fault-layer hook on one PTP slave (clock-degrade windows).
class PtpFaultHook {
 public:
  virtual ~PtpFaultHook() = default;
  /// Factor on the slave's residual sigma for a sync at `now`.
  virtual double sigma_scale(Ns now) = 0;
};

/// Observation hook called after every per-slave correction. It must
/// not draw RNG or schedule events.
class PtpSyncObserver {
 public:
  virtual ~PtpSyncObserver() = default;
  virtual void on_sync(std::size_t slave, Ns now, double offset_ns) = 0;
};

/// Synchronizes a set of slave SystemClocks against an implicit
/// grandmaster at true time. Call start() once; syncs run until the
/// queue stops being pumped.
class PtpService {
 public:
  PtpService(EventQueue& queue, PtpConfig config, Rng rng)
      : queue_(queue), config_(config), rng_(rng) {}

  /// Register a slave clock; returns its index (stable, in add order).
  /// The first sync happens immediately at start(); clocks added later
  /// sync on the next cycle. A per-slave residual sigma (ns) overrides
  /// the service default when >= 0 — e.g. a node synchronized over
  /// best-effort in-band software PTP syncs far worse than one using
  /// ptp_kvm against a GPS-fed host clock.
  std::size_t add_slave(SystemClock* clock, double residual_sigma_ns = -1.0) {
    Slave slave;
    slave.clock = clock;
    slave.residual_sigma_ns = residual_sigma_ns;
    slaves_.push_back(std::move(slave));
    return slaves_.size() - 1;
  }

  /// Begin the periodic sync cycle at the current simulated time.
  void start() {
    sync_all();
    schedule_next();
  }

  /// Apply one synchronization round to every slave right now.
  void sync_all() {
    for (std::size_t i = 0; i < slaves_.size(); ++i) {
      Slave& slave = slaves_[i];
      double sigma = slave.residual_sigma_ns >= 0.0
                         ? slave.residual_sigma_ns
                         : config_.residual_sigma_ns;
      // Fault-layer degradation (clock-degrade windows) scales the
      // residual sigma; the normal draw itself is consumed either way,
      // so a plan with no active window is bit-identical to no hook.
      if (slave.fault != nullptr) {
        sigma *= slave.fault->sigma_scale(queue_.now());
      }
      const double offset = config_.master_offset_ns + rng_.normal(0.0, sigma);
      slave.clock->set_offset(queue_.now(), offset);
      slave.last_offset_ns = offset;
      slave.worst_abs_offset_ns =
          std::max(slave.worst_abs_offset_ns, std::fabs(offset));
      ++slave.syncs;
      // Observer hook (flight recorder / clock-history capture): pure
      // observation after the correction is applied — draws no RNG,
      // schedules nothing, zero-perturbation like the telemetry hooks.
      if (sync_observer_ != nullptr) {
        sync_observer_->on_sync(i, queue_.now(), offset);
      }
    }
    ++rounds_;
  }

  std::uint64_t rounds() const { return rounds_; }
  std::size_t slave_count() const { return slaves_.size(); }

  /// The residual offset (ns) applied to slave `i` on its most recent
  /// sync — what the group barrier samples to judge sync quality.
  double last_offset_ns(std::size_t i) const { return at(i).last_offset_ns; }
  /// Largest |residual| ever applied to slave `i`.
  double worst_abs_offset_ns(std::size_t i) const {
    return at(i).worst_abs_offset_ns;
  }
  /// Synchronization rounds applied to slave `i` (counts only rounds
  /// the slave was registered for, unlike the service-wide rounds()).
  std::uint64_t syncs(std::size_t i) const { return at(i).syncs; }

  /// Install (or clear, with nullptr) slave `i`'s fault hook: every
  /// sync multiplies its residual sigma by `hook->sigma_scale(now)`.
  void set_fault(std::size_t i, PtpFaultHook* hook) { at(i).fault = hook; }

  /// Install (or clear, with nullptr) the sync observer.
  void set_sync_observer(PtpSyncObserver* observer) {
    sync_observer_ = observer;
  }

  const PtpConfig& config() const { return config_; }

 private:
  void schedule_next() {
    queue_.schedule_in(config_.interval, Component::kPtp, [this] {
      sync_all();
      schedule_next();
    });
  }

  struct Slave {
    SystemClock* clock = nullptr;
    double residual_sigma_ns = -1.0;
    double last_offset_ns = 0.0;
    double worst_abs_offset_ns = 0.0;
    std::uint64_t syncs = 0;
    PtpFaultHook* fault = nullptr;
  };

  Slave& at(std::size_t i) {
    CHOIR_EXPECT(i < slaves_.size(), "PtpService: slave index out of range");
    return slaves_[i];
  }
  const Slave& at(std::size_t i) const {
    CHOIR_EXPECT(i < slaves_.size(), "PtpService: slave index out of range");
    return slaves_[i];
  }

  EventQueue& queue_;
  PtpConfig config_;
  Rng rng_;
  std::vector<Slave> slaves_;
  std::uint64_t rounds_ = 0;
  PtpSyncObserver* sync_observer_ = nullptr;
};

}  // namespace choir::sim
