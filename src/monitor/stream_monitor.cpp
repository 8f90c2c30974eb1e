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
      tm_observed_(telemetry::counter("monitor.observed")),
      tm_matched_(telemetry::counter("monitor.matched")),
      tm_windows_(telemetry::counter("monitor.windows")),
      tm_streams_(telemetry::counter("monitor.streams")),
      tm_window_kappa_ppm_(telemetry::gauge("monitor.window_kappa_ppm")),
      tm_window_flow_kappa_ppm_(
          telemetry::gauge("monitor.window_flow_kappa_ppm")),
      tm_track_(telemetry::track("monitor")) {
  CHOIR_EXPECT(config_.window_packets > 0, "window_packets must be > 0");
}

void StreamMonitor::set_reference(const core::Trial& reference,
                                  std::span<const flow::FlowId> flows) {
  CHOIR_EXPECT(flows.empty() || flows.size() == reference.size(),
               "reference flow ids must be parallel to the reference");
  id_table_.rebuild(reference);  // throws on duplicate ids
  reference_ = &reference;
  reference_flows_ = flows;
  flow_ids_high_ = 0;
  for (const flow::FlowId f : flows) {
    if (f != flow::kNoFlow && f + 1 > flow_ids_high_) flow_ids_high_ = f + 1;
  }
}

void StreamMonitor::begin_stream(const std::string& name) {
  close_stream();
  stream_open_ = true;
  stream_monitored_ = reference_ != nullptr;
  stream_name_ = name;
  stream_packets_.clear();
  stream_flows_.clear();
  stream_size_ = 0;
  id_table_.new_stream();
  window_begin_ = 0;
  window_index_ = 0;
  ref_hint_ = 0;
}

void StreamMonitor::finalize() {
  close_stream();
  reference_ = nullptr;
  reference_flows_ = {};
}

void StreamMonitor::observe(core::PacketId raw_id, Ns timestamp,
                            flow::FlowId flow) {
  CHOIR_EXPECT(stream_open_, "observe() requires an open stream");
  ++observed_;
  tm_observed_.add();
  if (!stream_monitored_) return;
  const core::Trial& reference = *reference_;
  const IdTable::Hit hit =
      ref_hint_ < reference.size() && reference[ref_hint_].id == raw_id
          ? id_table_.observe_reference(static_cast<std::uint32_t>(ref_hint_))
          : id_table_.observe(raw_id);
  const core::PacketId id =
      hit.occurrence > 0 ? core::occurrence_id(raw_id, hit.occurrence)
                         : raw_id;
  ++stream_size_;
  stream_packets_.push_back(core::TrialPacket{id, timestamp});
  stream_flows_.push_back(flow);
  if (flow != flow::kNoFlow && flow + 1 > flow_ids_high_) {
    flow_ids_high_ = flow + 1;
  }

  // Count a match against the reference. The fused table answers the
  // common case (unique id, present in the reference) with one probe; a
  // repeated id re-probes under its occurrence-tagged identity.
  const std::uint32_t j = hit.occurrence == 0
                              ? hit.ref_index
                              : id_table_.ref_index_of(id);
  if (j != IdTable::kNoRef) {
    ++matched_total_;
    tm_matched_.add();
    ref_hint_ = j + 1;
  }

  if (stream_packets_.size() >= config_.window_packets) close_window();
}

namespace {

/// Load packets [begin, end) into `out`, rebased to the slice's first
/// packet; reuses `out`'s storage.
void load_slice(std::span<const core::TrialPacket> packets, std::size_t begin,
                std::size_t end, core::Trial& out) {
  out.assign(packets.subspan(begin, end - begin));
  out.rebase_to_zero();
}

}  // namespace

void StreamMonitor::close_window() {
  const std::size_t b_begin = window_begin_;
  const std::size_t b_end = window_begin_ + stream_packets_.size();
  if (b_end == b_begin) return;
  telemetry::ProfileSpan prof("monitor.window");

  const std::size_t a_begin = std::min(b_begin, reference_->size());
  const std::size_t a_end = std::min(b_end, reference_->size());
  load_slice(reference_->packets(), a_begin, a_end, slice_a_);
  load_slice(stream_packets_, 0, stream_packets_.size(), slice_b_);

  core::ComparisonOptions options;
  options.collect_series = true;
  options.collect_alignment = config_.top_k > 0;
  const core::ComparisonResult cmp =
      core::compare_trials(slice_a_, slice_b_, options, compare_scratch_);

  WindowRecord window;
  window.stream = stream_ordinal_;
  window.stream_name = stream_name_;
  window.index = window_index_;
  window.b_begin = b_begin;
  window.b_end = b_end;
  window.a_begin = a_begin;
  window.a_end = a_end;
  window.first_time_ns = stream_packets_.front().time;
  window.last_time_ns = stream_packets_.back().time;
  window.metrics = cmp.metrics;
  window.common = cmp.common;
  window.moved = cmp.moved;
  window.missing = cmp.size_a - cmp.common;
  window.extra = cmp.size_b - cmp.common;
  window.lcs_length = cmp.lcs_length;

  // Per-flow κ for this window: the same slice pair demuxed by flow id,
  // so every window carries its own flow-κ distribution. Inline
  // (jobs = 1): the monitor runs on the thread that feeds it, which may
  // already be a task-pool worker.
  const bool window_has_flows =
      !reference_flows_.empty() &&
      std::any_of(stream_flows_.begin(), stream_flows_.end(),
                  [](flow::FlowId f) { return f != flow::kNoFlow; });
  if (window_has_flows) {
    const flow::FlowSetComparison flows = flow::compare_flows_by_id(
        slice_a_, reference_flows_.subspan(a_begin, a_end - a_begin),
        slice_b_, stream_flows_, flow_ids_high_, /*jobs=*/1);
    window.has_flows = true;
    window.flow_aggregate = flows.aggregate;
  }

  if (config_.top_k > 0) attribute_window(cmp, window);

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
                  stream_name_.c_str(),
                  static_cast<unsigned long long>(window_index_),
                  window.metrics.kappa, window.moved, window.missing,
                  window.extra);
    tracer->instant("monitor-window", window.last_time_ns, tm_track_, args);
  }

  windows_.push_back(std::move(window));
  window_begin_ = b_end;
  ++window_index_;
  stream_packets_.clear();
  stream_flows_.clear();
}

void StreamMonitor::attribute_window(const core::ComparisonResult& cmp,
                                     const WindowRecord& window) {
  const core::Alignment& alignment = cmp.alignment;
  const std::size_t b_size = window.b_end - window.b_begin;
  const std::size_t a_size = window.a_end - window.a_begin;

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
    r.id = stream_packets_[mv->index_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + mv->index_a);
    r.index_b = static_cast<std::int64_t>(window.b_begin + mv->index_b);
    r.move = mv->displacement;
    const std::int32_t slot = match_of_b_[mv->index_b];
    if (slot >= 0) {
      r.latency_delta_ns =
          cmp.series.latency_delta_ns[static_cast<std::size_t>(slot)];
    }
    r.time_ns = stream_packets_[mv->index_b].time;
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
    r.id = stream_packets_[match.index_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + match.index_a);
    r.index_b = static_cast<std::int64_t>(window.b_begin + match.index_b);
    r.latency_delta_ns = cmp.series.latency_delta_ns[i];
    r.time_ns = stream_packets_[match.index_b].time;
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
    r.id = (*reference_)[global_a].id;
    r.index_a = static_cast<std::int64_t>(global_a);
    r.time_ns = (*reference_)[global_a].time;  // reference-relative time
    emit(r);
    ++emitted;
  }

  // Extra: in this window but not in the paired reference slice.
  emitted = 0;
  for (std::size_t k = 0; k < b_size && emitted < config_.top_k; ++k) {
    if (match_of_b_[k] >= 0) continue;
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kExtra;
    r.id = stream_packets_[k].id;
    r.index_b = static_cast<std::int64_t>(window.b_begin + k);
    r.time_ns = stream_packets_[k].time;
    emit(r);
    ++emitted;
  }
}

void StreamMonitor::close_stream() {
  if (!stream_open_) return;
  stream_open_ = false;
  if (!stream_monitored_) return;
  telemetry::ProfileSpan prof("monitor.finalize");
  close_window();
  streams_.push_back(
      StreamResult{stream_ordinal_, stream_name_, stream_size_, window_index_});
  tm_streams_.add();
  ++stream_ordinal_;
}

}  // namespace choir::monitor
