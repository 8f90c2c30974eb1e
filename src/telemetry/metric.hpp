// Scalar metrics: monotone counters and set/peak gauges.
//
// Instrumented components never talk to the Registry on the hot path.
// A count the component keeps for itself anyway (a stats field) is
// *exposed*: an Exposure registers the field once, at construction, and
// the counter reads it live, so each fact is incremented exactly once.
// A telemetry-only instrument goes through a handle resolved once at
// construction; with no session installed the handle is null and every
// operation is a single branch. Either way telemetry is affordable to
// leave compiled into every layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace choir::telemetry {

class Exposure;

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  /// Handle increments and folded exposures, plus the live count of
  /// every current exposer of this name.
  std::uint64_t value() const {
    std::uint64_t v = value_;
    for (const std::uint64_t* count : exposed_) v += *count;
    return v;
  }

 private:
  friend class Exposure;
  std::uint64_t value_ = 0;
  std::vector<const std::uint64_t*> exposed_;
};

/// A component's registration of counts it keeps itself. counter()
/// binds one count to a counter name of the current session (a no-op
/// without one); several exposers of one name add up. On destruction
/// each count's final value is folded into its counter, so the
/// registry keeps the totals after the component is gone. Declare the
/// Exposure after the counts it exposes, so it is destroyed first, and
/// let the registry outlive it.
class Exposure {
 public:
  Exposure() = default;
  Exposure(const Exposure&) = delete;
  Exposure& operator=(const Exposure&) = delete;
  ~Exposure();

  void counter(const std::string& name, const std::uint64_t& count);

 private:
  std::vector<std::pair<Counter*, const std::uint64_t*>> exposed_;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  /// High-water-mark update: keep the largest value ever seen.
  void set_max(std::int64_t v) {
    if (v > value_) value_ = v;
  }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Null-safe reference to a Registry-owned counter.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* counter) : counter_(counter) {}
  void add(std::uint64_t n = 1) {
    if (counter_ != nullptr) counter_->add(n);
  }
  explicit operator bool() const { return counter_ != nullptr; }

 private:
  Counter* counter_ = nullptr;
};

/// Null-safe reference to a Registry-owned gauge.
class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* gauge) : gauge_(gauge) {}
  void set(std::int64_t v) {
    if (gauge_ != nullptr) gauge_->set(v);
  }
  void set_max(std::int64_t v) {
    if (gauge_ != nullptr) gauge_->set_max(v);
  }
  explicit operator bool() const { return gauge_ != nullptr; }

 private:
  Gauge* gauge_ = nullptr;
};

}  // namespace choir::telemetry
