#include "telemetry/sampler.hpp"

#include "common/expect.hpp"

namespace choir::telemetry {

const char* to_string(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kPercentile:
      return "percentile";
  }
  return "unknown";
}

SeriesSampler::SeriesSampler(sim::EventQueue& queue, const Registry& registry,
                             SeriesConfig config)
    : queue_(queue), registry_(registry), config_(config) {
  // A zero interval would reschedule the tick at the same instant forever.
  CHOIR_EXPECT(config_.interval > 0, "series interval must be positive");
}

void SeriesSampler::start() {
  if (running_) return;
  running_ = true;
  queue_.schedule_in(config_.interval, sim::Component::kSampler,
                     [this] { tick(); });
}

void SeriesSampler::push(const std::string& name, SeriesKind kind, Ns t,
                         double value) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_
             .emplace(name, Entry{kind, MetricSeries(config_.capacity)})
             .first;
  }
  it->second.series.push(t, value);
}

void SeriesSampler::sample_now() {
  const Ns now = queue_.now();
  snapshots_.push_back(registry_.snapshot(now));
  for (const auto& [name, counter] : registry_.counters()) {
    push(name, SeriesKind::kCounter, now,
         static_cast<double>(counter.value()));
  }
  for (const auto& [name, gauge] : registry_.gauges()) {
    push(name, SeriesKind::kGauge, now, static_cast<double>(gauge.value()));
  }
  for (const auto& [name, histogram] : registry_.histograms()) {
    push(name + ".count", SeriesKind::kCounter, now,
         static_cast<double>(histogram.count()));
    push(name + ".p50", SeriesKind::kPercentile, now,
         static_cast<double>(histogram.percentile(50.0)));
    push(name + ".p90", SeriesKind::kPercentile, now,
         static_cast<double>(histogram.percentile(90.0)));
    push(name + ".p99", SeriesKind::kPercentile, now,
         static_cast<double>(histogram.percentile(99.0)));
    push(name + ".p999", SeriesKind::kPercentile, now,
         static_cast<double>(histogram.percentile(99.9)));
  }
  if (sink_) sink_(now);
}

void SeriesSampler::tick() {
  sample_now();
  queue_.schedule_in(config_.interval, sim::Component::kSampler,
                     [this] { tick(); });
}

}  // namespace choir::telemetry
