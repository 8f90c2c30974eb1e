// Deterministic fault injection.
//
// A FaultInjector binds a FaultPlan to live components: links (including
// switch egress cables), ports (EthDev), and mempools. Each attached
// component becomes a named injection point carrying its own RNG stream
// split from the injector seed by a hash of the point name — so fault
// decisions are a pure function of (plan, seed, traffic), independent of
// attachment order, and a faulted experiment is reproducible bit for bit.
//
// The injector is strictly additive: with an empty plan (or no injector
// at all) every hooked component behaves exactly as before, and no RNG
// stream used by the simulation proper is ever consumed here.
//
// Every injected fault is counted in FaultStats, which the telemetry
// registry exposes under `fault.*` when a session is installed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "net/link.hpp"
#include "pktio/ethdev.hpp"
#include "pktio/mbuf.hpp"
#include "sim/event_queue.hpp"
#include "sim/ptp.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::fault {

struct FaultStats {
  std::uint64_t link_down_drops = 0;    ///< frames lost to a down window
  std::uint64_t frames_dropped = 0;     ///< i.i.d. link drops
  std::uint64_t frames_corrupted = 0;   ///< FCS corrupted on the wire
  std::uint64_t frames_duplicated = 0;  ///< clones injected
  std::uint64_t duplicate_pool_dry = 0; ///< clone wanted, clone pool empty
  std::uint64_t frames_reordered = 0;   ///< frames held back by delay
  std::uint64_t rx_stalled_polls = 0;   ///< rx_burst calls returned 0
  std::uint64_t tx_stalled_bursts = 0;  ///< tx_burst calls accepted 0
  std::uint64_t bursts_truncated = 0;   ///< bursts clamped below request
  std::uint64_t allocs_denied = 0;      ///< forced mempool failures
  std::uint64_t clock_degrades = 0;     ///< PTP syncs under a degrade window

  std::uint64_t total() const {
    return link_down_drops + frames_dropped + frames_corrupted +
           frames_duplicated + frames_reordered + rx_stalled_polls +
           tx_stalled_bursts + bursts_truncated + allocs_denied +
           clock_degrades;
  }
};

class FaultInjector {
 public:
  /// Frames in the private pool backing duplicated frames. When it runs
  /// dry the duplicate is skipped (and counted), never the original.
  static constexpr std::size_t kDuplicatePoolPkts = 512;

  FaultInjector(sim::EventQueue& queue, FaultPlan plan, Rng rng);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register injection points. Only plan events whose target matches
  /// (exactly, or "*") ever fire at a point; attaching a component no
  /// event names is free. Components must outlive the injector (it
  /// detaches its hooks on destruction).
  void attach_link(const std::string& name, net::Link& link);
  void attach_port(const std::string& name, pktio::EthDev& dev);
  void attach_pool(const std::string& name, pktio::Mempool& pool);
  /// Clock injection point: PTP slave `slave` of `ptp` has its residual
  /// sigma multiplied by the active kClockDegrade events' factors.
  void attach_clock(const std::string& name, sim::PtpService& ptp,
                    std::size_t slave);

  /// Remove every installed hook (also done by the destructor).
  void detach_all();

  /// Observation hook fired the FIRST time each (point, plan event) pair
  /// actually damages traffic — i.e. when a fault window goes from
  /// configured to active — with the point name, the fault kind, and the
  /// simulated time of the first hit. Pure observation: it runs after
  /// the fault decision, draws no RNG, and schedules nothing, so an
  /// installed observer never perturbs the run. Pass nullptr to clear.
  void set_observer(
      std::function<void(const std::string& point, FaultKind kind, Ns now)>
          observer) {
    observer_ = std::move(observer);
  }

  const FaultStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  std::size_t attached_points() const;

 private:
  struct LinkPoint;
  struct PortPoint;
  struct PoolPoint;
  struct ClockPoint;

  /// Plan events of `layer` matching `name`, in plan order.
  std::vector<const FaultEvent*> events_for(FaultLayer layer,
                                            const std::string& name) const;
  Rng point_rng(const std::string& name) const;
  /// Fire the observer once per (point, event): latches `notified[i]`.
  void notify_activation(const std::string& point, std::vector<bool>& notified,
                         std::size_t i, FaultKind kind, Ns now);

  sim::EventQueue& queue_;
  FaultPlan plan_;
  std::uint64_t seed_;
  pktio::Mempool dup_pool_;
  FaultStats stats_;
  telemetry::Exposure exposure_;  ///< stats_ as the fault.* counters
  std::function<void(const std::string&, FaultKind, Ns)> observer_;

  std::vector<std::unique_ptr<LinkPoint>> links_;
  std::vector<std::unique_ptr<PortPoint>> ports_;
  std::vector<std::unique_ptr<PoolPoint>> pools_;
  std::vector<std::unique_ptr<ClockPoint>> clocks_;
};

}  // namespace choir::fault
