#include "monitor/stream_monitor.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "common/expect.hpp"
#include "monitor/top_k.hpp"
#include "telemetry/span_profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::monitor {

const char* to_string(DivergenceRecord::Kind kind) {
  switch (kind) {
    case DivergenceRecord::Kind::kMoved:
      return "moved";
    case DivergenceRecord::Kind::kMissing:
      return "missing";
    case DivergenceRecord::Kind::kExtra:
      return "extra";
    case DivergenceRecord::Kind::kLatency:
      return "latency";
  }
  return "?";
}

StreamMonitor::StreamMonitor(MonitorConfig config)
    : config_(config),
      tm_windows_(telemetry::counter("monitor.windows")),
      tm_streams_(telemetry::counter("monitor.streams")),
      tm_window_kappa_ppm_(telemetry::gauge("monitor.window_kappa_ppm")),
      tm_window_flow_kappa_ppm_(
          telemetry::gauge("monitor.window_flow_kappa_ppm")),
      tm_track_(telemetry::track("monitor")) {
  CHOIR_EXPECT(config_.window_packets > 0, "window_packets must be > 0");
}

void StreamMonitor::monitor_run(const std::string& name,
                                const MonitoredRun& run) {
  CHOIR_EXPECT(run.reference_flows.empty() ||
                   run.reference_flows.size() == run.reference.size(),
               "reference flow ids must be parallel to the reference");
  CHOIR_EXPECT(run.flows.empty() || run.flows.size() == run.trial.size(),
               "flow ids must be parallel to the run");
  WindowRecord window;
  window.stream = static_cast<std::uint32_t>(streams_.size());
  window.stream_name = name;
  for (std::size_t b = 0; b < run.trial.size(); b += config_.window_packets) {
    window.b_begin = b;
    window.b_end = std::min(b + config_.window_packets, run.trial.size());
    windows_.push_back(close_window(run, window));
    ++window.index;
  }
  streams_.push_back(StreamResult{window.stream, name, run.trial.size(),
                                  window.index});
  tm_streams_.add();
}

namespace {

/// Load packets [begin, end) into `out`, rebased to the slice's first
/// packet; reuses `out`'s storage.
void load_slice(const core::Trial& trial, std::size_t begin, std::size_t end,
                core::Trial& out) {
  out.assign(std::span(trial.packets()).subspan(begin, end - begin));
  out.rebase_to_zero();
}

}  // namespace

WindowRecord StreamMonitor::close_window(const MonitoredRun& run,
                                         WindowRecord window) {
  telemetry::ProfileSpan prof("monitor.window");
  window.a_begin = std::min(window.b_begin, run.reference.size());
  window.a_end = std::min(window.b_end, run.reference.size());
  load_slice(run.reference, window.a_begin, window.a_end, slice_a_);
  load_slice(run.trial, window.b_begin, window.b_end, slice_b_);

  core::ComparisonOptions options;
  options.collect_series = true;
  options.collect_alignment = config_.top_k > 0;
  const core::ComparisonResult cmp =
      core::compare_trials(slice_a_, slice_b_, options, compare_scratch_);

  window.first_time_ns = run.origin + run.trial[window.b_begin].time;
  window.last_time_ns = run.origin + run.trial[window.b_end - 1].time;
  window.metrics = cmp.metrics;
  window.common = cmp.common;
  window.moved = cmp.moved;
  window.missing = cmp.size_a - cmp.common;
  window.extra = cmp.size_b - cmp.common;
  window.lcs_length = cmp.lcs_length;

  // Per-flow κ for this window: the same slice pair demuxed by flow id,
  // so every window carries its own flow-κ distribution. Inline
  // (jobs = 1): the monitor runs on the thread that closes the round,
  // which may already be a task-pool worker.
  const std::span<const flow::FlowId> flows_b =
      run.flows.empty()
          ? run.flows
          : run.flows.subspan(window.b_begin, window.b_end - window.b_begin);
  if (!run.reference_flows.empty() &&
      std::any_of(flows_b.begin(), flows_b.end(),
                  [](flow::FlowId f) { return f != flow::kNoFlow; })) {
    const flow::FlowSetComparison flows = flow::compare_flows_by_id(
        slice_a_,
        run.reference_flows.subspan(window.a_begin,
                                    window.a_end - window.a_begin),
        slice_b_, flows_b, run.flow_count);
    window.has_flows = true;
    window.flow_aggregate = flows.aggregate;
  }

  if (config_.top_k > 0) attribute_window(run, cmp, window);

  tm_windows_.add();
  tm_window_kappa_ppm_.set(
      static_cast<std::int64_t>(window.metrics.kappa * 1e6));
  if (window.has_flows) {
    tm_window_flow_kappa_ppm_.set(
        static_cast<std::int64_t>(window.flow_aggregate.worst * 1e6));
  }
  if (auto* tracer = telemetry::tracer()) {
    char args[160];
    std::snprintf(args, sizeof(args),
                  "{\"stream\":\"%s\",\"window\":%llu,\"kappa\":%.9f,"
                  "\"moved\":%zu,\"missing\":%zu,\"extra\":%zu}",
                  window.stream_name.c_str(),
                  static_cast<unsigned long long>(window.index),
                  window.metrics.kappa, window.moved, window.missing,
                  window.extra);
    tracer->instant("monitor-window", window.last_time_ns, tm_track_, args);
  }
  return window;
}

void StreamMonitor::attribute_window(const MonitoredRun& run,
                                     const core::ComparisonResult& cmp,
                                     const WindowRecord& window) {
  const core::Alignment& alignment = cmp.alignment;
  const std::size_t b_size = window.b_end - window.b_begin;
  const std::size_t a_size = window.a_end - window.a_begin;
  // The window's packets of B by window-local position; their times are
  // rebased to B's first packet, so a raw time adds the run's origin.
  const std::span<const core::TrialPacket> b =
      std::span(run.trial.packets()).subspan(window.b_begin, b_size);

  // Per-local-position match lookup (window-local B index -> match slot).
  match_of_b_.assign(b_size, -1);
  matched_a_.assign(a_size, 0);
  for (std::size_t i = 0; i < alignment.matches.size(); ++i) {
    match_of_b_[alignment.matches[i].index_b] = static_cast<std::int32_t>(i);
    matched_a_[alignment.matches[i].index_a] = 1;
  }

  const auto emit = [&](DivergenceRecord record) {
    record.stream = window.stream;
    record.stream_name = window.stream_name;
    record.window = window.index;
    divergence_.push_back(std::move(record));
  };

  // Moved: largest |rank displacement| first (top_k.hpp orders).
  std::vector<const core::Move*>& moves = top_moves_;
  moves.clear();
  for (const core::Move& mv : alignment.moves) {
    if (mv.displacement != 0) moves.push_back(&mv);
  }
  keep_top(moves, config_.top_k,
           [](const core::Move* x, const core::Move* y) {
             return move_before(*x, *y);
           });
  for (const core::Move* mv : moves) {
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kMoved;
    r.id = b[mv->index_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + mv->index_a);
    r.index_b = static_cast<std::int64_t>(window.b_begin + mv->index_b);
    r.move = mv->displacement;
    const std::int32_t slot = match_of_b_[mv->index_b];
    if (slot >= 0) {
      r.latency_delta_ns =
          cmp.series.latency_delta_ns[static_cast<std::size_t>(slot)];
    }
    r.time_ns = run.origin + b[mv->index_b].time;
    emit(r);
  }

  // Latency straddle: matched packets with the largest |l_B - l_A|.
  const std::vector<double>& delta = cmp.series.latency_delta_ns;
  std::vector<std::uint32_t>& by_latency = top_latency_;
  by_latency.clear();
  for (std::uint32_t i = 0; i < alignment.matches.size(); ++i) {
    if (delta[i] != 0.0) by_latency.push_back(i);
  }
  keep_top(by_latency, config_.top_k, [&](std::uint32_t x, std::uint32_t y) {
    return latency_before(delta[x], alignment.matches[x].index_b, delta[y],
                          alignment.matches[y].index_b);
  });
  for (const std::uint32_t i : by_latency) {
    const core::MatchedPacket& match = alignment.matches[i];
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kLatency;
    r.id = b[match.index_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + match.index_a);
    r.index_b = static_cast<std::int64_t>(window.b_begin + match.index_b);
    r.latency_delta_ns = cmp.series.latency_delta_ns[i];
    r.time_ns = run.origin + b[match.index_b].time;
    emit(r);
  }

  // Missing: in the paired reference slice but not in this window. A
  // packet that merely drifted across a window boundary shows up as
  // missing here and extra in a neighbor — that is the signal, not a
  // bug (see docs/MONITOR.md).
  std::size_t emitted = 0;
  for (std::size_t j = 0; j < a_size && emitted < config_.top_k; ++j) {
    if (matched_a_[j]) continue;
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kMissing;
    const std::size_t global_a = window.a_begin + j;
    r.id = run.reference[global_a].id;
    r.index_a = static_cast<std::int64_t>(global_a);
    r.time_ns = run.reference[global_a].time;  // reference-relative time
    emit(r);
    ++emitted;
  }

  // Extra: in this window but not in the paired reference slice.
  emitted = 0;
  for (std::size_t k = 0; k < b_size && emitted < config_.top_k; ++k) {
    if (match_of_b_[k] >= 0) continue;
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kExtra;
    r.id = b[k].id;
    r.index_b = static_cast<std::int64_t>(window.b_begin + k);
    r.time_ns = run.origin + b[k].time;
    emit(r);
    ++emitted;
  }
}

}  // namespace choir::monitor
