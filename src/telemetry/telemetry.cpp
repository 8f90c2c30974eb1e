#include "telemetry/telemetry.hpp"

namespace choir::telemetry {

namespace {
// Thread-local, like the span profiler: a session is visible only on
// the thread that installed it. Concurrent experiments (suite-level
// task-pool workers) each install their own registry/tracer without
// sharing mutable observer state; components constructed on a worker
// bind that worker's session.
thread_local Registry* g_registry = nullptr;
thread_local Tracer* g_tracer = nullptr;
}  // namespace

Registry* Registry::current() { return g_registry; }
Tracer* Tracer::current() { return g_tracer; }

ScopedTelemetry::ScopedTelemetry(Registry* registry, Tracer* tracer)
    : prev_registry_(g_registry), prev_tracer_(g_tracer) {
  g_registry = registry;
  g_tracer = tracer;
}

ScopedTelemetry::~ScopedTelemetry() {
  g_registry = prev_registry_;
  g_tracer = prev_tracer_;
}

void Exposure::counter(const std::string& name, const std::uint64_t& count) {
  if (g_registry == nullptr) return;
  Counter& c = g_registry->counter(name);
  c.exposed_.push_back(&count);
  exposed_.emplace_back(&c, &count);
}

Exposure::~Exposure() {
  for (const auto& [c, count] : exposed_) {
    c->value_ += *count;
    std::erase(c->exposed_, count);
  }
}

CounterHandle counter(const std::string& name) {
  return g_registry != nullptr ? CounterHandle(&g_registry->counter(name))
                               : CounterHandle();
}

GaugeHandle gauge(const std::string& name) {
  return g_registry != nullptr ? GaugeHandle(&g_registry->gauge(name))
                               : GaugeHandle();
}

HistogramHandle histogram(const std::string& name) {
  return g_registry != nullptr
             ? HistogramHandle(&g_registry->histogram(name))
             : HistogramHandle();
}

std::uint32_t track(const std::string& name) {
  return g_tracer != nullptr ? g_tracer->track(name) : 0;
}

}  // namespace choir::telemetry
