// Declarative fault schedules.
//
// A FaultPlan is an ordered list of FaultEvents, each naming a fault
// kind, an injection point (by name, or "*" for every point of the
// compatible layer), an activity window on the simulated timeline, and
// the kind's parameters. Plans are pure data: nothing happens until a
// FaultInjector binds the plan to live components. The same plan plus
// the same seed reproduces the same faulted run bit for bit — fault
// decisions draw only from per-point RNG streams keyed by the point
// name, never from wall time or attachment order.
//
// Plans can be built programmatically or parsed from a small text form,
// one event per line:
//
//   link_drop      target=link.repl0-out start=12ms duration=5ms p=0.3
//   link_down      target=*              start=40ms duration=2ms
//   nic_rx_stall   target=nic.repl0-in   start=10ms duration=750us
//   mem_pressure   target=pool.gen0      start=1ms  duration=4ms  p=1.0
//
// '#' starts a comment; blank lines are ignored. Durations/starts take
// the suffixes ns, us, ms, s (bare numbers are nanoseconds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace choir::fault {

enum class FaultKind : std::uint8_t {
  // Link layer (net/link, including switch egress cables).
  kLinkDown,      ///< window: every frame on the link is lost
  kLinkDrop,      ///< window + p: i.i.d. frame loss
  kLinkCorrupt,   ///< window + p: FCS corrupted; next MAC discards it
  kLinkDuplicate, ///< window + p: a clone arrives `delay` later
  kLinkReorder,   ///< window + p: the frame itself is held `delay` longer
  // NIC layer (pktio/ethdev).
  kNicRxStall,       ///< window: rx_burst returns nothing
  kNicTxStall,       ///< window: tx_burst accepts nothing
  kNicBurstTruncate, ///< window: bursts clamped to `burst_cap` packets
  // Memory layer (pktio/mbuf).
  kMemPressure, ///< window + p: allocations fail as if the pool were empty
  // Clock layer (sim/ptp).
  kClockDegrade, ///< window: a slave's PTP residual sigma scales by `factor`
};

/// Layer an event's kind applies to (wildcard targets bind per layer).
enum class FaultLayer : std::uint8_t { kLink, kNic, kMempool, kClock };

FaultLayer layer_of(FaultKind kind);
const char* kind_name(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDrop;
  /// Injection-point name ("link.repl0-out", "nic.repl0-in",
  /// "pool.gen0", ...) or "*" for every point of the kind's layer.
  std::string target = "*";
  Ns start = 0;
  Ns duration = 0;
  double probability = 1.0;   ///< per-frame / per-alloc chance, [0, 1]
  Ns delay = 0;               ///< displacement for duplicate/reorder
  std::uint16_t burst_cap = 1; ///< kNicBurstTruncate clamp
  double factor = 1.0;        ///< kClockDegrade residual-sigma multiplier

  Ns end() const { return start + duration; }
  bool active_at(Ns t) const { return t >= start && t < end(); }
  bool matches(const std::string& point_name) const {
    return target == "*" || target == point_name;
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultEvent event) {
    events_.push_back(std::move(event));
    return *this;
  }

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Parse the text form. Throws choir::FormatError with a line number
  /// on any malformed directive; a validated plan round-trips through
  /// to_text()/parse() unchanged.
  static FaultPlan parse(const std::string& text);

  /// Render back to the text form parse() accepts.
  std::string to_text() const;

  /// Validate parameter ranges (probabilities in [0,1], non-negative
  /// windows, burst caps). Throws choir::FormatError on violation.
  void validate() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace choir::fault
