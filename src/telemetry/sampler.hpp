// Samplers: periodic registry observation on the simulation timeline.
//
// Both samplers run as self-rescheduling events on the sim::EventQueue.
// A tick only *reads* simulation state — it draws no randomness and
// mutates nothing the simulation observes — so enabling sampling cannot
// reorder a seeded run; it merely interleaves pure-observer events
// between the real ones (bench_observer_cost gates this).
//
//  - Sampler keeps whole-registry Snapshots (the counters.jsonl export).
//  - SeriesSampler keeps one fixed-capacity ring of (t, value) points
//    *per metric*: every counter, every gauge, and the count plus
//    p50/p90/p99/p99.9 of every latency histogram. Rings overwrite
//    their oldest point once full, so a soak of any length holds a
//    bounded, freshest-window view of every series. Series are stored
//    and exported in sorted name order (docs/SERIES.md), and sampling
//    happens on the single-threaded sim timeline, so series.jsonl is
//    byte-identical at any `--jobs` value.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "telemetry/registry.hpp"

namespace choir::telemetry {

class Sampler {
 public:
  Sampler(sim::EventQueue& queue, const Registry& registry, Ns period)
      : queue_(queue), registry_(registry), period_(period) {}

  /// Begin sampling; the first snapshot lands one period from now.
  void start() {
    if (running_) return;
    running_ = true;
    queue_.schedule_in(period_, sim::Component::kSampler, [this] { tick(); });
  }

  void stop() { running_ = false; }

  /// Take a snapshot immediately (used for the final post-run sample).
  void sample_now() { samples_.push_back(registry_.snapshot(queue_.now())); }

  const std::vector<Snapshot>& samples() const { return samples_; }

 private:
  void tick() {
    if (!running_) return;
    sample_now();
    queue_.schedule_in(period_, sim::Component::kSampler, [this] { tick(); });
  }

  sim::EventQueue& queue_;
  const Registry& registry_;
  Ns period_;
  bool running_ = false;
  std::vector<Snapshot> samples_;
};

/// One sampled point of a metric series.
struct SeriesPoint {
  Ns t = 0;
  double value = 0.0;
  friend bool operator==(const SeriesPoint&, const SeriesPoint&) = default;
};

/// Fixed-capacity ring of SeriesPoints: push() overwrites the oldest
/// point once `capacity` are held. Reads are oldest-first.
class MetricSeries {
 public:
  explicit MetricSeries(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {
    ring_.reserve(capacity_);
  }

  void push(Ns t, double value) {
    if (ring_.size() < capacity_) {
      ring_.push_back({t, value});
    } else {
      ring_[pushed_ % capacity_] = {t, value};
    }
    ++pushed_;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Points ever pushed, including the ones the ring has since dropped.
  std::uint64_t total() const { return pushed_; }

  /// i-th retained point, oldest first (i in [0, size())).
  const SeriesPoint& at(std::size_t i) const {
    const std::size_t head =
        pushed_ > capacity_ ? pushed_ % capacity_ : 0;
    return ring_[(head + i) % ring_.size()];
  }

  const SeriesPoint& back() const { return at(size() - 1); }

  std::vector<SeriesPoint> points() const {
    std::vector<SeriesPoint> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) out.push_back(at(i));
    return out;
  }

 private:
  std::vector<SeriesPoint> ring_;
  std::size_t capacity_;
  std::uint64_t pushed_ = 0;
};

/// How a series' values behave — drives the Prometheus exposition type
/// and the rate computations in the drift detector.
enum class SeriesKind { kCounter, kGauge, kPercentile };

const char* to_string(SeriesKind kind);

struct SeriesConfig {
  Ns interval = milliseconds(5);  ///< sim-time cadence between samples
  std::size_t capacity = 4096;    ///< ring capacity per metric
};

/// Per-metric ring-buffer series sampled from a Registry on a sim-time
/// cadence. See the header comment for the determinism contract.
class SeriesSampler {
 public:
  struct Entry {
    SeriesKind kind;
    MetricSeries series;
  };

  SeriesSampler(sim::EventQueue& queue, const Registry& registry,
                SeriesConfig config);

  /// Begin sampling; the first sample lands one interval from now.
  void start();

  /// Sample every instrument immediately (the final post-run point).
  void sample_now();

  /// Called with the sim time after each completed sample — the hook
  /// `choirctl top` renders live frames from.
  void set_sink(std::function<void(Ns)> sink) { sink_ = std::move(sink); }

  /// Series in sorted name order. A metric first touched mid-run simply
  /// starts its series at the first tick that saw it.
  const std::map<std::string, Entry>& entries() const { return entries_; }

  std::uint64_t samples_taken() const { return samples_taken_; }
  Ns interval() const { return config_.interval; }
  const SeriesConfig& config() const { return config_; }

 private:
  void tick();
  void push(const std::string& name, SeriesKind kind, Ns t, double value);

  sim::EventQueue& queue_;
  const Registry& registry_;
  SeriesConfig config_;
  bool running_ = false;
  std::uint64_t samples_taken_ = 0;
  std::function<void(Ns)> sink_;
  std::map<std::string, Entry> entries_;
};

}  // namespace choir::telemetry
