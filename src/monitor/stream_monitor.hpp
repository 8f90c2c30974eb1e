// Streaming consistency monitor: live per-window κ against a reference.
//
// The paper's κ (Eqs. 1-5) grades two *finished* trials; by the time it
// says a replay diverged, the trial is over and nothing can say when
// during the run — or which packets — caused the drop. The monitor
// consumes the trial-B packet stream incrementally (fed from the
// recorder's drain path through the same null-check hook style as
// telemetry) and turns κ into an observability signal:
//
//  - **Per-window metrics.** Every `window_packets` arrivals, the window
//    of B is paired with the same index range of the reference trial A,
//    both slices are rebased to their own first packet, and the exact
//    Section 3 computation runs on the pair (O(w log w) via the LIS
//    alignment). A window covering the full trial therefore reproduces
//    the offline Eq. 5 result bit for bit.
//  - **Running estimates.** U, L and I accumulate exactly across the
//    stream; O is estimated from insertion-rank displacements (a Fenwick
//    tree over reference positions), and the LCS length so far is
//    maintained by an incremental LIS. These give a live κ estimate
//    without re-scanning the stream.
//  - **Divergence attribution.** Each window contributes its top-K
//    packets by move distance and by latency straddle, plus missing and
//    extra packets, to a per-packet record stream (divergence.hpp)
//    exported as `divergence.jsonl`.
//  - **Exact finale.** When a stream ends, the whole stream is compared
//    against the reference with the offline algorithm, so the stream
//    summary equals what `compare_trials` on the saved captures reports.
//
// The monitor is a pure observer: it draws no randomness, schedules
// nothing, and a seeded run is bit-identical with the monitor on or off.
// It runs inline on the feeding thread, so its telemetry is live.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/units.hpp"
#include "core/compare_scratch.hpp"
#include "core/metrics.hpp"
#include "core/trial.hpp"
#include "flow/flow_kappa.hpp"
#include "monitor/incremental_lis.hpp"
#include "telemetry/metric.hpp"

namespace choir::monitor {

/// Packet id -> reference position, fused with the per-stream occurrence
/// counter used for duplicate tagging. The reference ids hold dense ids
/// 0..n-1 of one FlatIndex, so the dense id *is* the reference position;
/// ids first seen on a stream get ids >= n and resolve to kNoRef. The
/// common case — a unique packet present in the reference — is one probe.
/// Occurrence counters sit in a per-id array, reset per stream in O(1) by
/// an epoch stamp.
class IdTable {
 public:
  static constexpr std::uint32_t kNoRef = core::PacketIdIndex::kNone;

  struct Hit {
    std::uint32_t ref_index = kNoRef;  ///< position in the reference trial
    std::uint64_t occurrence = 0;      ///< 0-based occurrence of the raw id
  };

  /// Rebuild over an (already occurrence-tagged) reference trial.
  /// Existing stream-side entries are discarded.
  void rebuild(const core::Trial& reference) {
    index_.clear();
    index_.reserve(reference.size());
    for (const core::TrialPacket& p : reference.packets()) {
      CHOIR_EXPECT(index_.insert(p.id).fresh,
                   "reference trial contains duplicate packet ids");
    }
    reference_size_ = reference.size();
    counts_.assign(reference.size(), Count{});
    epoch_ = 1;
  }

  /// Bump the stream epoch: every occurrence counter reads as zero again.
  void new_stream() { ++epoch_; }

  /// The hot path: look up `raw`, inserting it when absent, and claim its
  /// next occurrence number.
  Hit observe(core::PacketId raw) {
    const core::PacketIdIndex::Inserted hit = index_.insert(raw);
    if (hit.fresh) counts_.emplace_back();
    return claim(hit.id);
  }

  /// observe() for a raw id the caller has already found at reference
  /// position `ref_index` (the id there compared equal). Reference ids
  /// are their own dense ids, so this is exactly what the probe would
  /// return, without the probe.
  Hit observe_reference(std::uint32_t ref_index) { return claim(ref_index); }

  /// Read-only lookup (used for occurrence-tagged duplicate ids).
  std::uint32_t ref_index_of(core::PacketId id) const {
    return to_ref(index_.find(id));
  }

  std::size_t size() const { return index_.size(); }

 private:
  struct Count {
    std::uint64_t value = 0;
    std::uint32_t epoch = 0;
  };

  Hit claim(std::uint32_t id) {
    Count& count = counts_[id];
    if (count.epoch != epoch_) count = Count{0, epoch_};
    return Hit{to_ref(id), count.value++};
  }

  std::uint32_t to_ref(std::uint32_t id) const {
    return id < reference_size_ ? id : kNoRef;
  }

  core::PacketIdIndex index_;
  std::size_t reference_size_ = 0;
  std::vector<Count> counts_;  ///< by dense id
  std::uint32_t epoch_ = 1;
};

struct MonitorConfig {
  /// Packets of trial B per window. Each window is compared as its own
  /// mini-trial against the same index range of the reference.
  std::size_t window_packets = 8192;
  /// Attribution entries kept per window *per kind* (moved, latency,
  /// missing, extra). 0 disables attribution.
  std::size_t top_k = 16;
};

/// Worst flows (ascending κ) kept per stream finale when the feed
/// carries flow ids.
inline constexpr std::size_t kWorstFlowsKept = 16;

/// One closed window of a monitored stream.
struct WindowRecord {
  std::uint32_t stream = 0;     ///< monitored-stream ordinal (0-based)
  std::string stream_name;
  std::uint64_t index = 0;      ///< window ordinal within the stream
  std::size_t b_begin = 0;      ///< B positions [b_begin, b_end)
  std::size_t b_end = 0;
  std::size_t a_begin = 0;      ///< paired reference slice [a_begin, a_end)
  std::size_t a_end = 0;
  Ns first_time_ns = 0;         ///< raw sim arrival time of first B packet
  Ns last_time_ns = 0;          ///< raw sim arrival time of last B packet
  core::ConsistencyMetrics metrics;  ///< exact Section 3 on the slice pair
  std::size_t common = 0;
  std::size_t moved = 0;
  std::size_t missing = 0;      ///< in the A slice, absent from the window
  std::size_t extra = 0;        ///< in the window, absent from the A slice
  std::size_t lcs_length = 0;
  /// Stream-cumulative κ estimate at window close (running U/L/I exact,
  /// O estimated from insertion ranks — see RunningEstimate).
  double kappa_running = 1.0;

  /// Per-flow κ over this window's slice pair, populated iff the feed
  /// carries flow ids: the windowed view of the per-flow finale, so the
  /// flow-κ distribution becomes a sim-time series (one FlowAggregate
  /// per window) instead of one end-of-stream scalar set.
  bool has_flows = false;
  flow::FlowAggregate flow_aggregate;
};

/// Stream-cumulative estimate, updated per packet in O(log n).
struct RunningEstimate {
  double uniqueness = 0.0;  ///< exact so far
  double ordering = 0.0;    ///< insertion-rank footrule estimate
  double latency = 0.0;     ///< exact so far
  double iat = 0.0;         ///< exact so far
  double kappa = 1.0;
  std::size_t lcs_length = 0;  ///< exact (incremental LIS)
};

/// Per-stream summary; metrics are the exact offline Eq. 5 values.
struct StreamResult {
  std::uint32_t ordinal = 0;
  std::string name;
  std::size_t packets = 0;
  std::size_t windows = 0;
  core::ConsistencyMetrics metrics;
  std::size_t common = 0;
  std::size_t moved = 0;
  std::size_t missing = 0;
  std::size_t extra = 0;

  /// Per-flow finale, populated iff both the reference and this stream
  /// were fed flow ids (the recorder's classifier feed). The exact Eq. 5
  /// comparison runs per flow on the flow's own timebase; the aggregate
  /// follows flow/flow_kappa.hpp conventions.
  bool has_flows = false;
  std::size_t flow_count = 0;  ///< id-space size at stream close
  flow::FlowAggregate flow_aggregate;
  std::vector<flow::FlowComparison> worst_flows;  ///< ascending κ, capped
};

/// One attributed divergent packet (a `divergence.jsonl` line).
struct DivergenceRecord {
  enum class Kind : std::uint8_t { kMoved, kMissing, kExtra, kLatency };
  Kind kind = Kind::kMoved;
  std::uint32_t stream = 0;
  std::string stream_name;
  std::uint64_t window = 0;
  core::PacketId id;
  std::int64_t index_a = -1;      ///< global position in reference, -1 n/a
  std::int64_t index_b = -1;      ///< global position in stream, -1 n/a
  std::int64_t move = 0;          ///< signed rank displacement (moved only)
  double latency_delta_ns = 0.0;  ///< l_B - l_A, window-local (matched only)
  Ns time_ns = 0;  ///< raw sim arrival time (B side; A side for missing)
};

const char* to_string(DivergenceRecord::Kind kind);

class StreamMonitor {
 public:
  explicit StreamMonitor(MonitorConfig config = {});
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// True once the first stream has closed and become the reference.
  bool has_reference() const { return reference_set_; }

  /// Start a new stream, closing the current one (tail window, exact
  /// finale). The first stream observed becomes the reference trial A
  /// and emits no windows; every later stream is monitored against it.
  /// Its timestamps are rebased to its first packet on close.
  void begin_stream(const std::string& name);

  /// Observe the next packet of the current stream: raw (pre-occurrence-
  /// tagging) identity, receiver timestamp and flow id, exactly what the
  /// capture path records (flow::kNoFlow for unclassified packets). Flow
  /// ids on the reference and at least one monitored stream enable the
  /// per-flow finale in StreamResult. O(log n) amortized; windows close
  /// inline.
  void observe(core::PacketId raw_id, Ns timestamp, flow::FlowId flow);

  /// Close the current stream. Idempotent; further observes require a
  /// new begin_stream().
  void finalize();

  const MonitorConfig& config() const { return config_; }
  const std::vector<WindowRecord>& windows() const { return windows_; }
  const std::vector<StreamResult>& streams() const { return streams_; }
  const std::vector<DivergenceRecord>& divergence() const {
    return divergence_;
  }

  /// Running estimate for the *current* (unfinished) stream.
  const RunningEstimate& running() const { return running_; }

  std::uint64_t observed() const { return observed_; }
  std::uint64_t matched() const { return matched_total_; }

 private:
  void close_window();
  void close_stream();
  void update_running();
  void attribute_window(const core::ComparisonResult& cmp,
                        const WindowRecord& window);

  // Fenwick tree over reference positions, for insertion ranks.
  void fenwick_add(std::size_t index_a);
  std::uint64_t fenwick_prefix(std::size_t index_a) const;

  MonitorConfig config_;

  core::Trial reference_;
  bool reference_set_ = false;
  IdTable id_table_;  ///< fused id->ref-position + occurrence counting

  // Flow feed (parallel to reference_ / stream_packets_; kNoFlow for
  // unclassified packets). flow_ids_high_ tracks the id-space
  // size: the classifier's ids are dense, so max+1 is the flow count.
  std::vector<flow::FlowId> reference_flows_;
  std::vector<flow::FlowId> stream_flows_;
  std::size_t flow_ids_high_ = 0;

  // Current stream.
  bool stream_open_ = false;
  bool stream_is_reference_ = false;
  std::uint32_t stream_ordinal_ = 0;  ///< next monitored-stream ordinal
  std::string stream_name_;
  std::vector<core::TrialPacket> stream_packets_;  ///< raw times, unique ids
  std::size_t window_begin_ = 0;
  std::uint64_t window_index_ = 0;

  // Running accumulators (see RunningEstimate). Fenwick counts are one
  // per reference position, so u32 nodes halve the tree's footprint on
  // the per-packet hot path.
  IncrementalLis stream_lis_;
  std::vector<std::uint32_t> fenwick_;
  std::size_t stream_matched_ = 0;
  // One past the largest reference position matched so far (0: none). A
  // match at or beyond it outranks every earlier match, so its Fenwick
  // prefix is stream_matched_ - 1 without a tree walk.
  std::size_t match_high_ = 0;
  // Reference position after the last match: in-order streams find their
  // next packet there, which saves the id table's hash probe.
  std::size_t ref_hint_ = 0;
  double running_abs_latency_ns_ = 0.0;
  double running_abs_iat_ns_ = 0.0;
  double running_footrule_ = 0.0;
  RunningEstimate running_;

  // Comparison arena for window closes and the stream finale; one
  // scratch serves every compare. The slice trials and attribution
  // buffers are reused across windows too, so a warm monitor closes
  // windows without growing them.
  core::CompareScratch compare_scratch_;
  core::Trial slice_a_;
  core::Trial slice_b_;
  std::vector<std::int32_t> match_of_b_;
  std::vector<char> matched_a_;
  std::vector<const core::Move*> top_moves_;
  std::vector<std::uint32_t> top_latency_;

  // Outputs.
  std::vector<WindowRecord> windows_;
  std::vector<StreamResult> streams_;
  std::vector<DivergenceRecord> divergence_;
  std::uint64_t observed_ = 0;
  std::uint64_t matched_total_ = 0;

  // Telemetry (null handles when no session is installed).
  telemetry::CounterHandle tm_observed_;
  telemetry::CounterHandle tm_matched_;
  telemetry::CounterHandle tm_windows_;
  telemetry::CounterHandle tm_streams_;
  telemetry::GaugeHandle tm_window_kappa_ppm_;
  telemetry::GaugeHandle tm_running_kappa_ppm_;
  telemetry::GaugeHandle tm_window_flow_kappa_ppm_;  ///< worst flow κ
  std::uint32_t tm_track_ = 0;
};

}  // namespace choir::monitor
