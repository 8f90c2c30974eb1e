#include "telemetry/span_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/expect.hpp"
#include "telemetry/tracer.hpp"

namespace choir::telemetry {

namespace {

// Thread-local: a profiler is visible only on the thread that installed
// it. Other threads see null and their ProfileSpans are no-ops, so the
// sim thread's span stack can never be corrupted from another thread.
thread_local SpanProfiler* g_profiler = nullptr;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SpanProfiler* SpanProfiler::current() { return g_profiler; }

ScopedProfiler::ScopedProfiler(SpanProfiler* profiler) : prev_(g_profiler) {
  g_profiler = profiler;
}

ScopedProfiler::~ScopedProfiler() { g_profiler = prev_; }

SpanProfiler::SpanProfiler(std::size_t max_spans) : max_spans_(max_spans) {
  epoch_ns_ = steady_now_ns();
}

std::uint64_t SpanProfiler::now_ns() const {
  if (time_source_) return time_source_();
  return steady_now_ns() - epoch_ns_;
}

void SpanProfiler::enter(const char* name, std::uint64_t at_ns) {
  stack_.push_back(Open{name, at_ns});
}

void SpanProfiler::exit(std::uint64_t at_ns) {
  CHOIR_EXPECT(!stack_.empty(), "profiler exit without a matching enter");
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = at_ns >= open.start_ns ? at_ns - open.start_ns : 0;

  Aggregate& agg = aggregates_[open.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.child_ns += open.child_ns;
  if (dur > agg.max_ns) agg.max_ns = dur;

  if (!stack_.empty()) stack_.back().child_ns += dur;

  if (spans_.size() < max_spans_) {
    spans_.push_back(Span{open.name, open.start_ns, dur,
                          static_cast<std::uint32_t>(stack_.size())});
  } else {
    ++dropped_spans_;
  }
}

std::vector<SpanProfiler::Entry> SpanProfiler::summary() const {
  std::vector<Entry> entries;
  entries.reserve(aggregates_.size());
  for (const auto& [name, agg] : aggregates_) entries.push_back({name, agg});
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.agg.self_ns() > b.agg.self_ns();
                   });
  return entries;
}

std::string SpanProfiler::render_table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %10s %10s\n",
                "span", "count", "total_ms", "self_ms", "mean_us", "max_us");
  out += line;
  for (const Entry& e : summary()) {
    const double mean_us =
        e.agg.count > 0
            ? static_cast<double>(e.agg.total_ns) /
                  static_cast<double>(e.agg.count) / 1e3
            : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-28s %10llu %12.3f %12.3f %10.2f %10.2f\n", e.name.c_str(),
                  static_cast<unsigned long long>(e.agg.count),
                  static_cast<double>(e.agg.total_ns) / 1e6,
                  static_cast<double>(e.agg.self_ns()) / 1e6, mean_us,
                  static_cast<double>(e.agg.max_ns) / 1e3);
    out += line;
  }
  return out;
}

std::string SpanProfiler::render_csv() const {
  std::string out = "name,count,total_ns,self_ns,mean_ns,max_ns\n";
  for (const auto& [name, agg] : aggregates_) {
    const std::uint64_t mean =
        agg.count > 0 ? agg.total_ns / agg.count : 0;
    out += name + ',' + std::to_string(agg.count) + ',' +
           std::to_string(agg.total_ns) + ',' + std::to_string(agg.self_ns()) +
           ',' + std::to_string(mean) + ',' + std::to_string(agg.max_ns) +
           '\n';
  }
  return out;
}

void SpanProfiler::export_to_tracer(Tracer& tracer) const {
  const std::uint32_t track = tracer.track("profiler (host ns)");
  for (const Span& s : spans_) {
    tracer.span(s.name, static_cast<Ns>(s.start_ns),
                static_cast<Ns>(s.start_ns + s.dur_ns), track,
                "{\"depth\":" + std::to_string(s.depth) + "}");
  }
}

}  // namespace choir::telemetry
