// Telemetry tour: observe a whole experiment without perturbing it.
//
//  1. Run a seeded experiment twice — telemetry off, then on — and show
//     that every consistency metric is bit-identical (telemetry is a pure
//     observer; same seed, same run).
//  2. Pretty-print the final counter/gauge snapshot and the latency
//     histogram percentiles collected by the instrumented pipeline.
//  3. Use the standalone instruments directly (no simulation), the same
//     way a new component would bind and use them.
//
// Build & run:  ./build/examples/telemetry_tour
// (exits 1 unless the two runs are bit-identical)
#include <cstdio>

#include "telemetry/telemetry.hpp"
#include "testbed/experiment.hpp"

using namespace choir;

namespace {

testbed::ExperimentConfig config(bool telemetry) {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.packets = 8'000;
  cfg.runs = 3;
  cfg.seed = 11;
  cfg.telemetry.enabled = telemetry;
  return cfg;
}

}  // namespace

int main() {
  // --- 1: zero perturbation -------------------------------------------
  const auto off = testbed::run_experiment(config(false));
  const auto on = testbed::run_experiment(config(true));
  const bool identical = off.mean.kappa == on.mean.kappa;
  std::printf("mean kappa, telemetry off: %.10f\n", off.mean.kappa);
  std::printf("mean kappa, telemetry on:  %.10f  (%s)\n", on.mean.kappa,
              identical ? "bit-identical" : "MISMATCH - bug!");

  // --- 2: what the instrumented pipeline saw --------------------------
  const auto snapshot = on.telemetry_registry->snapshot(0);
  std::printf("\n%zu counters, %zu gauges, %zu histograms, "
              "%zu trace events, %zu snapshots\n",
              snapshot.counters.size(), snapshot.gauges.size(),
              on.telemetry_registry->histograms().size(),
              on.telemetry_trace->events().size(),
              on.telemetry_samples.size());
  std::printf("\nselected counters:\n");
  for (const auto& [name, value] : snapshot.counters) {
    if (name.find("forwarded") != std::string::npos ||
        name.find("replayed_packets") != std::string::npos ||
        name.find("recorder.captured") != std::string::npos) {
      std::printf("  %-38s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  std::printf("\nlatency histograms (ns):\n");
  std::printf("  %-38s %8s %8s %8s %8s\n", "name", "count", "p50", "p99",
              "max");
  for (const auto& [name, h] : on.telemetry_registry->histograms()) {
    const auto s = h.summary();
    if (s.count == 0) continue;
    std::printf("  %-38s %8llu %8lld %8lld %8lld\n", name.c_str(),
                static_cast<unsigned long long>(s.count),
                static_cast<long long>(s.p50), static_cast<long long>(s.p99),
                static_cast<long long>(s.max));
  }

  // --- 3: the instruments stand alone ---------------------------------
  telemetry::Registry registry;
  telemetry::Tracer tracer;
  {
    telemetry::ScopedTelemetry session(&registry, &tracer);
    // Components bind handles once, at construction...
    telemetry::CounterHandle sent = telemetry::counter("demo.sent");
    telemetry::HistogramHandle lat = telemetry::histogram("demo.latency_ns");
    // ...and poke them from the hot path.
    for (int i = 1; i <= 100; ++i) {
      sent.add();
      lat.record(i * 37);
    }
    tracer.span("demo-window", 0, microseconds(50));
  }
  const auto s = registry.histogram("demo.latency_ns").summary();
  std::printf("\nstandalone: demo.sent=%llu  demo.latency_ns "
              "p50=%lld p90=%lld max=%lld (%zu trace events)\n",
              static_cast<unsigned long long>(
                  registry.counter("demo.sent").value()),
              static_cast<long long>(s.p50), static_cast<long long>(s.p90),
              static_cast<long long>(s.max), tracer.events().size());
  return identical ? 0 : 1;
}
