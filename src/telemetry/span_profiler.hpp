// Span profiler: host-time RAII scoped spans over the pipeline's hot
// paths (record drain, replay pacing, κ compute, monitor windows).
//
// The tracer (tracer.hpp) answers "when on the *simulated* timeline did
// things happen"; the profiler answers "where does the *host* CPU time
// go when running them". Spans nest on a stack, so every aggregate
// carries both total (inclusive) and self (exclusive) time — the numbers
// a flame graph would show — and the whole thing renders as a self-time
// summary table plus Chrome-trace spans on a dedicated host-time track.
//
// Like every telemetry instrument, the profiler is strictly an observer
// and costs one predictable branch when disabled: ProfileSpan resolves
// SpanProfiler::current() at construction and is a no-op when none is
// installed. Because host timestamps are inherently nondeterministic,
// the profiler is *not* part of the default telemetry session: it is
// installed separately (ScopedProfiler) so that default artifacts stay
// byte-identical run to run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace choir::telemetry {

class Tracer;

class SpanProfiler {
 public:
  /// Per-name aggregate over all closed spans with that name.
  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;  ///< inclusive (children counted)
    std::uint64_t child_ns = 0;  ///< time spent in nested spans
    std::uint64_t max_ns = 0;    ///< longest single span (inclusive)
    std::uint64_t self_ns() const { return total_ns - child_ns; }
  };

  /// One row of the self-time summary, sorted by self_ns descending.
  struct Entry {
    std::string name;
    Aggregate agg;
  };

  /// Individual spans kept for the Chrome-trace export; bounded by
  /// `max_spans` (aggregates are always exact).
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;  ///< host ns since profiler construction
    std::uint64_t dur_ns = 0;
    std::uint32_t depth = 0;
  };

  static constexpr std::size_t kDefaultMaxSpans = 1u << 16;

  explicit SpanProfiler(std::size_t max_spans = kDefaultMaxSpans);
  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  /// The profiler installed by the innermost live ScopedProfiler, or
  /// nullptr when profiling is disabled.
  static SpanProfiler* current();

  /// Host nanoseconds since construction (monotonic). Tests may replace
  /// the source with a deterministic fake.
  std::uint64_t now_ns() const;
  void set_time_source(std::function<std::uint64_t()> source) {
    time_source_ = std::move(source);
  }

  // Span lifecycle, driven by ProfileSpan. `name` must outlive the
  // profiler (string literals in practice).
  void enter(const char* name, std::uint64_t at_ns);
  void exit(std::uint64_t at_ns);

  /// Aggregates sorted by self time, largest first.
  std::vector<Entry> summary() const;

  /// Fixed-width self-time table:
  ///   name  count  total_ms  self_ms  mean_us  max_us
  std::string render_table() const;

  /// CSV: name,count,total_ns,self_ns,mean_ns,max_ns (sorted by name so
  /// the column set — though not the values — is deterministic).
  std::string render_csv() const;

  /// Emit every retained span onto a "profiler (host ns)" tracer track.
  void export_to_tracer(Tracer& tracer) const;

  const std::map<std::string, Aggregate>& aggregates() const {
    return aggregates_;
  }
  std::uint64_t dropped_spans() const { return dropped_spans_; }

 private:
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns = 0;
  };

  std::size_t max_spans_;
  std::function<std::uint64_t()> time_source_;
  std::uint64_t epoch_ns_ = 0;
  std::vector<Open> stack_;
  std::map<std::string, Aggregate> aggregates_;
  std::vector<Span> spans_;
  std::uint64_t dropped_spans_ = 0;
};

/// RAII installer of the current profiler (nests like ScopedTelemetry).
/// The installation is thread-local: only spans opened on the installing
/// thread are recorded, so background threads cannot corrupt the span
/// stack.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(SpanProfiler* profiler);
  ~ScopedProfiler();
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  SpanProfiler* prev_;
};

/// One profiled scope. Place at the top of a hot path:
///
///   void Middlebox::replay_burst() {
///     telemetry::ProfileSpan prof("replay.burst");
///     ...
///   }
///
/// `name` must be a string with static storage duration.
class ProfileSpan {
 public:
  explicit ProfileSpan(const char* name)
      : profiler_(SpanProfiler::current()) {
    if (profiler_ != nullptr) profiler_->enter(name, profiler_->now_ns());
  }
  ~ProfileSpan() {
    if (profiler_ != nullptr) profiler_->exit(profiler_->now_ns());
  }
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  SpanProfiler* profiler_;
};

}  // namespace choir::telemetry
