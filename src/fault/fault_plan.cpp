#include "fault/fault_plan.hpp"

#include <cmath>
#include <limits>

#include "common/expect.hpp"

namespace choir::fault {

namespace {

struct KindInfo {
  FaultKind kind;
  const char* name;
  FaultLayer layer;
};

constexpr KindInfo kKinds[] = {
    {FaultKind::kLinkDown, "link_down", FaultLayer::kLink},
    {FaultKind::kLinkDrop, "link_drop", FaultLayer::kLink},
    {FaultKind::kLinkCorrupt, "link_corrupt", FaultLayer::kLink},
    {FaultKind::kLinkDuplicate, "link_duplicate", FaultLayer::kLink},
    {FaultKind::kLinkReorder, "link_reorder", FaultLayer::kLink},
    {FaultKind::kNicRxStall, "nic_rx_stall", FaultLayer::kNic},
    {FaultKind::kNicTxStall, "nic_tx_stall", FaultLayer::kNic},
    {FaultKind::kNicBurstTruncate, "nic_burst_truncate", FaultLayer::kNic},
    {FaultKind::kMemPressure, "mem_pressure", FaultLayer::kMempool},
    {FaultKind::kClockDegrade, "clock_degrade", FaultLayer::kClock},
};

const KindInfo& info_of(FaultKind kind) {
  for (const KindInfo& k : kKinds) {
    if (k.kind == kind) return k;
  }
  throw FormatError("unknown fault kind id " +
                    std::to_string(static_cast<int>(kind)));
}

}  // namespace

FaultLayer layer_of(FaultKind kind) { return info_of(kind).layer; }

const char* kind_name(FaultKind kind) { return info_of(kind).name; }

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const std::string where =
        "fault plan event " + std::to_string(i) + " (" + kind_name(e.kind) +
        "): ";
    if (e.start < 0 || e.duration < 0) {
      throw FormatError(where + "negative window");
    }
    if (e.duration > std::numeric_limits<Ns>::max() - e.start) {
      throw FormatError(where + "window end out of range");
    }
    // Negated range tests, so that NaN fails them too.
    if (!(e.probability >= 0.0 && e.probability <= 1.0)) {
      throw FormatError(where + "probability out of [0,1]");
    }
    if (e.delay < 0) throw FormatError(where + "negative delay");
    if (e.kind == FaultKind::kNicBurstTruncate && e.burst_cap == 0) {
      throw FormatError(where + "burst_cap must be >= 1");
    }
    if (!std::isfinite(e.factor) || e.factor < 0.0) {
      throw FormatError(where + "factor not finite and >= 0");
    }
    if (e.target.empty()) throw FormatError(where + "empty target");
  }
}

}  // namespace choir::fault
