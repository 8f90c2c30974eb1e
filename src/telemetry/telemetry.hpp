// Umbrella header and session management for the telemetry subsystem.
//
// Usage, from whoever owns an experiment:
//
//   telemetry::Registry registry;
//   telemetry::Tracer tracer;
//   telemetry::ScopedTelemetry session(&registry, &tracer);
//   ... construct simulation components; they bind instruments now ...
//
// Components expose the counts they keep themselves through an Exposure
// and call telemetry::counter("a.b") & co. at construction for
// telemetry-only instruments; with no session installed an Exposure
// registers nothing, the calls return null handles, and every hot-path
// operation is a single predictable branch. Telemetry is strictly an
// observer: it draws from no RNG stream and schedules nothing that
// mutates simulation state, so a seeded run is bit-identical with
// telemetry on or off (the determinism regression test enforces this).
#pragma once

#include <string>

#include "telemetry/latency_histogram.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_profiler.hpp"
#include "telemetry/tracer.hpp"

namespace choir::telemetry {

/// RAII installer of the current registry and tracer. The installation
/// is thread-local: only components constructed on the installing thread
/// bind these instruments, so experiments running concurrently on
/// task-pool workers each observe their own session and never share
/// mutable observer state. Sessions nest; destruction restores the
/// previous pair. Either pointer may be null to leave that instrument
/// disabled.
class ScopedTelemetry {
 public:
  ScopedTelemetry(Registry* registry, Tracer* tracer);
  ~ScopedTelemetry();
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Registry* prev_registry_;
  Tracer* prev_tracer_;
};

/// Handle acquisition against the current session; null handles when no
/// session is installed. Call at component construction, not per event.
CounterHandle counter(const std::string& name);
GaugeHandle gauge(const std::string& name);
HistogramHandle histogram(const std::string& name);

/// The current tracer (nullptr when disabled).
inline Tracer* tracer() { return Tracer::current(); }

/// Get-or-create a tracer track; returns 0 when tracing is disabled
/// (track 0 is the generic "experiment" track).
std::uint32_t track(const std::string& name);

}  // namespace choir::telemetry
