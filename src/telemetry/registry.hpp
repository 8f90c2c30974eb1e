// Registry: the namespace of one telemetry session's instruments.
//
// Instruments are get-or-create by name; names are dotted paths
// (`port.choir-out.0.tx_packets`). Storage is a std::map so pointers to
// instruments are stable for the registry's lifetime (handles and
// exposures rely on this) and iteration — hence every snapshot and
// export — is in sorted name order, keeping all artifacts deterministic.
//
// Each simulation is single-threaded by design; the registry follows
// suit and uses no atomics. A registry becomes "current" only through a
// ScopedTelemetry session (telemetry.hpp), and the install is
// thread-local, so concurrently running experiments (one per task-pool
// worker) each bind their own registry. With no session installed all
// instrumentation in the codebase degrades to null handles and empty
// exposures. A registry must outlive every Exposure bound to it. Worker
// registries can be folded into an aggregate after the join with
// merge_from(); merging in submission order keeps the aggregate
// deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "telemetry/latency_histogram.hpp"
#include "telemetry/metric.hpp"

namespace choir::telemetry {

/// Point-in-time copy of every counter and gauge, tagged with sim time.
struct Snapshot {
  Ns at = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  LatencyHistogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  Snapshot snapshot(Ns at) const {
    Snapshot s;
    s.at = at;
    s.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c.value());
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g.value());
    return s;
  }

  /// Fold another registry's instruments into this one: counters and
  /// histograms add sample-exactly; gauges keep the maximum reading
  /// (they are level/high-water instruments, so max is the only merge
  /// that never understates). Iteration is in name order and the caller
  /// merges workers in submission order, so the aggregate is
  /// deterministic.
  void merge_from(const Registry& other) {
    for (const auto& [name, c] : other.counters_) {
      counters_[name].add(c.value());
    }
    for (const auto& [name, g] : other.gauges_) {
      gauges_[name].set_max(g.value());
    }
    for (const auto& [name, h] : other.histograms_) {
      histograms_[name].merge_from(h);
    }
  }

  /// The registry installed by the innermost live ScopedTelemetry on
  /// this thread, or nullptr when telemetry is disabled.
  static Registry* current();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace choir::telemetry
