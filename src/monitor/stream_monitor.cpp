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
      tm_running_kappa_ppm_(telemetry::gauge("monitor.running_kappa_ppm")),
      tm_window_flow_kappa_ppm_(
          telemetry::gauge("monitor.window_flow_kappa_ppm")),
      tm_track_(telemetry::track("monitor")) {
  CHOIR_EXPECT(config_.window_packets > 0, "window_packets must be > 0");
}

void StreamMonitor::begin_stream(const std::string& name) {
  close_stream();
  stream_open_ = true;
  stream_is_reference_ = !reference_set_;
  stream_name_ = name;
  stream_packets_.clear();
  stream_flows_.clear();
  id_table_.new_stream();
  window_begin_ = 0;
  window_index_ = 0;
  stream_lis_.clear();
  if (reference_set_) std::fill(fenwick_.begin(), fenwick_.end(), 0u);
  stream_matched_ = 0;
  match_high_ = 0;
  ref_hint_ = 0;
  running_abs_latency_ns_ = 0.0;
  running_abs_iat_ns_ = 0.0;
  running_footrule_ = 0.0;
  running_ = RunningEstimate{};
}

void StreamMonitor::finalize() { close_stream(); }

void StreamMonitor::fenwick_add(std::size_t index_a) {
  const std::size_t size = fenwick_.size();
  std::uint32_t* tree = fenwick_.data();
  for (std::size_t i = index_a + 1; i < size; i += i & (~i + 1)) ++tree[i];
}

std::uint64_t StreamMonitor::fenwick_prefix(std::size_t index_a) const {
  const std::uint32_t* tree = fenwick_.data();
  std::uint64_t sum = 0;
  for (std::size_t i = index_a; i > 0; i -= i & (~i + 1)) sum += tree[i];
  return sum;
}

void StreamMonitor::observe(core::PacketId raw_id, Ns timestamp,
                            flow::FlowId flow) {
  CHOIR_EXPECT(stream_open_, "observe() requires an open stream");
  const IdTable::Hit hit =
      ref_hint_ < reference_.size() && reference_[ref_hint_].id == raw_id
          ? id_table_.observe_reference(static_cast<std::uint32_t>(ref_hint_))
          : id_table_.observe(raw_id);
  const core::PacketId id =
      hit.occurrence > 0 ? core::occurrence_id(raw_id, hit.occurrence)
                         : raw_id;
  const auto k = static_cast<std::uint32_t>(stream_packets_.size());
  stream_packets_.push_back(core::TrialPacket{id, timestamp});
  stream_flows_.push_back(flow);
  if (flow != flow::kNoFlow && flow + 1 > flow_ids_high_) {
    flow_ids_high_ = flow + 1;
  }
  ++observed_;
  tm_observed_.add();
  if (stream_is_reference_) return;

  // Match against the reference and fold the packet into the running
  // accumulators — the same per-match quantities the offline Eqs. 3-4
  // loop computes, built incrementally. The fused table answers the
  // common case (unique id, present in the reference) with one probe;
  // a repeated id re-probes under its occurrence-tagged identity.
  const std::uint32_t j = hit.occurrence == 0
                              ? hit.ref_index
                              : id_table_.ref_index_of(id);
  if (j != IdTable::kNoRef) {
    ++stream_matched_;
    ++matched_total_;
    tm_matched_.add();
    const double l_a = static_cast<double>(reference_[j].time);
    const double l_b =
        static_cast<double>(timestamp - stream_packets_.front().time);
    const double g_a =
        j == 0 ? 0.0
               : static_cast<double>(reference_[j].time -
                                     reference_[j - 1].time);
    const double g_b =
        k == 0 ? 0.0
               : static_cast<double>(timestamp -
                                     stream_packets_[k - 1].time);
    running_abs_latency_ns_ += l_a >= l_b ? l_a - l_b : l_b - l_a;
    running_abs_iat_ns_ += g_a >= g_b ? g_a - g_b : g_b - g_a;
    // Insertion-rank footrule: rank among matched-so-far, by B arrival
    // vs by reference position. An O(log n) running proxy for Eq. 2.
    const auto rank_b = static_cast<double>(stream_matched_ - 1);
    const auto rank_a = static_cast<double>(
        j >= match_high_ ? stream_matched_ - 1 : fenwick_prefix(j));
    running_footrule_ += rank_a >= rank_b ? rank_a - rank_b : rank_b - rank_a;
    fenwick_add(j);
    stream_lis_.append(j);
    match_high_ = std::max<std::size_t>(match_high_, j + 1);
    ref_hint_ = j + 1;
  }

  if (stream_packets_.size() - window_begin_ >= config_.window_packets) {
    close_window();
  }
}

void StreamMonitor::update_running() {
  RunningEstimate r;
  const auto na = static_cast<double>(reference_.size());
  const auto nb = static_cast<double>(stream_packets_.size());
  const auto m = static_cast<double>(stream_matched_);
  const double total = na + nb;
  r.uniqueness = total > 0.0 ? 1.0 - 2.0 * m / total : 0.0;
  const double o_denominator = m * (m + 1.0) / 2.0;
  r.ordering = o_denominator > 0.0
                   ? std::min(1.0, running_footrule_ / o_denominator)
                   : 0.0;
  if (stream_matched_ > 0 && !stream_packets_.empty()) {
    const double a_last =
        reference_.empty() ? 0.0 : static_cast<double>(reference_.last_time());
    const double b_span = static_cast<double>(stream_packets_.back().time -
                                              stream_packets_.front().time);
    const double straddle = std::max(b_span, a_last);
    const double l_denominator = m * straddle;
    r.latency =
        l_denominator > 0.0 ? running_abs_latency_ns_ / l_denominator : 0.0;
    const double i_denominator = b_span + a_last;
    r.iat = i_denominator > 0.0 ? running_abs_iat_ns_ / i_denominator : 0.0;
  }
  r.kappa = core::kappa_of(r.uniqueness, r.ordering, r.latency, r.iat);
  r.lcs_length = stream_lis_.length();
  running_ = r;
}

namespace {

/// Load packets [begin, end) into `out`, rebased to the slice's first
/// packet; reuses `out`'s storage.
void load_slice(std::span<const core::TrialPacket> packets, std::size_t begin,
                std::size_t end, core::Trial& out) {
  out.assign(packets.subspan(begin, end - begin));
  out.rebase_to_zero();
}

/// flows[begin, end) as a span.
std::span<const flow::FlowId> flow_slice(const std::vector<flow::FlowId>& flows,
                                         std::size_t begin, std::size_t end) {
  return std::span<const flow::FlowId>(flows).subspan(begin, end - begin);
}

}  // namespace

void StreamMonitor::close_window() {
  const std::size_t b_begin = window_begin_;
  const std::size_t b_end = stream_packets_.size();
  if (b_end == b_begin) return;
  telemetry::ProfileSpan prof("monitor.window");

  const std::size_t a_begin = std::min(b_begin, reference_.size());
  const std::size_t a_end = std::min(b_end, reference_.size());
  load_slice(reference_.packets(), a_begin, a_end, slice_a_);
  load_slice(stream_packets_, b_begin, b_end, slice_b_);

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
  window.first_time_ns = stream_packets_[b_begin].time;
  window.last_time_ns = stream_packets_[b_end - 1].time;
  window.metrics = cmp.metrics;
  window.common = cmp.common;
  window.moved = cmp.moved;
  window.missing = cmp.size_a - cmp.common;
  window.extra = cmp.size_b - cmp.common;
  window.lcs_length = cmp.lcs_length;
  update_running();
  window.kappa_running = running_.kappa;

  // Per-flow κ for this window: the same slice pair demuxed by flow id,
  // so every window carries its own flow-κ distribution. Inline
  // (jobs = 1) for the same reason as the stream finale below.
  const bool window_has_flows =
      !reference_flows_.empty() && b_end <= stream_flows_.size() &&
      std::any_of(stream_flows_.begin() +
                      static_cast<std::ptrdiff_t>(b_begin),
                  stream_flows_.begin() + static_cast<std::ptrdiff_t>(b_end),
                  [](flow::FlowId f) { return f != flow::kNoFlow; });
  if (window_has_flows) {
    const flow::FlowSetComparison flows = flow::compare_flows_by_id(
        slice_a_, flow_slice(reference_flows_, a_begin, a_end), slice_b_,
        flow_slice(stream_flows_, b_begin, b_end), flow_ids_high_,
        /*jobs=*/1);
    window.has_flows = true;
    window.flow_aggregate = flows.aggregate;
  }

  if (config_.top_k > 0) attribute_window(cmp, window);

  tm_windows_.add();
  tm_window_kappa_ppm_.set(
      static_cast<std::int64_t>(window.metrics.kappa * 1e6));
  tm_running_kappa_ppm_.set(static_cast<std::int64_t>(running_.kappa * 1e6));
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
    const std::size_t global_b = window.b_begin + mv->index_b;
    r.id = stream_packets_[global_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + mv->index_a);
    r.index_b = static_cast<std::int64_t>(global_b);
    r.move = mv->displacement;
    const std::int32_t slot = match_of_b_[mv->index_b];
    if (slot >= 0) {
      r.latency_delta_ns =
          cmp.series.latency_delta_ns[static_cast<std::size_t>(slot)];
    }
    r.time_ns = stream_packets_[global_b].time;
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
    const std::size_t global_b = window.b_begin + match.index_b;
    r.id = stream_packets_[global_b].id;
    r.index_a = static_cast<std::int64_t>(window.a_begin + match.index_a);
    r.index_b = static_cast<std::int64_t>(global_b);
    r.latency_delta_ns = cmp.series.latency_delta_ns[i];
    r.time_ns = stream_packets_[global_b].time;
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
    r.id = reference_[global_a].id;
    r.index_a = static_cast<std::int64_t>(global_a);
    r.time_ns = reference_[global_a].time;  // reference-relative time
    emit(r);
    ++emitted;
  }

  // Extra: in this window but not in the paired reference slice.
  emitted = 0;
  for (std::size_t k = 0; k < b_size && emitted < config_.top_k; ++k) {
    if (match_of_b_[k] >= 0) continue;
    DivergenceRecord r;
    r.kind = DivergenceRecord::Kind::kExtra;
    const std::size_t global_b = window.b_begin + k;
    r.id = stream_packets_[global_b].id;
    r.index_b = static_cast<std::int64_t>(global_b);
    r.time_ns = stream_packets_[global_b].time;
    emit(r);
    ++emitted;
  }
}

void StreamMonitor::close_stream() {
  if (!stream_open_) return;
  stream_open_ = false;
  if (stream_is_reference_) {
    reference_ = core::Trial(std::move(stream_packets_));
    reference_.make_occurrences_unique();
    reference_.rebase_to_zero();
    id_table_.rebuild(reference_);
    fenwick_.assign(reference_.size() + 1, 0);
    reference_set_ = true;
    reference_flows_ = std::move(stream_flows_);
    stream_packets_.clear();
    stream_flows_.clear();
    return;
  }
  telemetry::ProfileSpan prof("monitor.finalize");
  close_window();

  // Exact finale: the whole stream against the whole reference, via the
  // offline algorithm — what `compare_trials` on saved captures reports.
  StreamResult result;
  result.ordinal = stream_ordinal_;
  result.name = stream_name_;
  result.packets = stream_packets_.size();
  result.windows = window_index_;
  core::Trial full;  // once per stream: not worth keeping alive
  load_slice(stream_packets_, 0, stream_packets_.size(), full);
  const core::ComparisonResult cmp = core::compare_trials(
      reference_, full, core::ComparisonOptions{}, compare_scratch_);
  result.metrics = cmp.metrics;
  result.common = cmp.common;
  result.moved = cmp.moved;
  result.missing = cmp.size_a - cmp.common;
  result.extra = cmp.size_b - cmp.common;

  // Per-flow finale: exact Eq. 5 per flow over the shared (classifier)
  // id space. Inline (jobs = 1): the monitor runs on the thread that
  // feeds it, which may already be a task-pool worker, and the finale is
  // a once-per-stream cost.
  const bool stream_has_flows =
      std::any_of(stream_flows_.begin(), stream_flows_.end(),
                  [](flow::FlowId f) { return f != flow::kNoFlow; });
  if (!reference_flows_.empty() && stream_has_flows) {
    const core::Trial& a = reference_;
    flow::FlowSetComparison flows = flow::compare_flows_by_id(
        a, reference_flows_, full, stream_flows_, flow_ids_high_, /*jobs=*/1);
    result.has_flows = true;
    result.flow_count = flows.aggregate.flows;
    result.flow_aggregate = flows.aggregate;
    std::vector<std::size_t> order;
    order.reserve(flows.flows.size());
    for (std::size_t f = 0; f < flows.flows.size(); ++f) {
      const flow::FlowComparison& fc = flows.flows[f];
      if (fc.in_a || fc.in_b) order.push_back(f);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return flows.flows[x].metrics.kappa <
                              flows.flows[y].metrics.kappa;
                     });
    if (order.size() > kWorstFlowsKept) order.resize(kWorstFlowsKept);
    result.worst_flows.reserve(order.size());
    for (const std::size_t f : order) {
      result.worst_flows.push_back(flows.flows[f]);
    }
  }

  streams_.push_back(std::move(result));
  tm_streams_.add();
  ++stream_ordinal_;
  stream_packets_.clear();
  stream_flows_.clear();
  // The finale grew the arena to the whole stream; windows need only a
  // window's worth, so hand the rest back instead of holding it until
  // the next finale.
  compare_scratch_ = core::CompareScratch{};
}

}  // namespace choir::monitor
