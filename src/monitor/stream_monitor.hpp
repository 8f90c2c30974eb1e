// Streaming consistency monitor: per-window κ against a reference.
//
// The paper's κ (Eqs. 1-5) grades two *finished* trials; by the time it
// says a replay diverged, the trial is over and nothing can say when
// during the run — or which packets — caused the drop. The monitor cuts
// each finished run B into windows and turns κ into an observability
// signal:
//
//  - **Per-window metrics.** Every `window_packets` positions, the
//    window of B is paired with the same index range of the reference
//    trial A, both slices are rebased to their own first packet, and the
//    exact Section 3 computation runs on the pair (O(w log w) via the
//    LIS alignment). A window covering the full trial therefore
//    reproduces the offline Eq. 5 result bit for bit.
//  - **Divergence attribution.** Each window contributes its top-K
//    packets by move distance and by latency straddle, plus missing and
//    extra packets, to a per-packet record stream (divergence.hpp)
//    exported as `divergence.jsonl`.
//
// The monitor keeps no trial of its own. An experiment's round close
// builds each run's trial (and flow classification) once for the
// evaluation and hands run A and run B to monitor_run(), which reads
// them in place; the whole-run κ is the evaluation's too, and
// render_stream_summary() reads it from there.
//
// The monitor is a pure observer: it draws no randomness, schedules
// nothing, and a seeded run is bit-identical with the monitor on or off.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/compare_scratch.hpp"
#include "core/metrics.hpp"
#include "core/trial.hpp"
#include "flow/flow_kappa.hpp"
#include "telemetry/metric.hpp"

namespace choir::monitor {

struct MonitorConfig {
  /// Packets of trial B per window. Each window is compared as its own
  /// mini-trial against the same index range of the reference.
  std::size_t window_packets = 8192;
  /// Attribution entries kept per window *per kind* (moved, latency,
  /// missing, extra). 0 disables attribution.
  std::size_t top_k = 16;
};

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

  /// Per-flow κ over this window's slice pair, populated iff the run
  /// carries flow ids: the flow-κ distribution as a sim-time series
  /// (one FlowAggregate per window).
  bool has_flows = false;
  flow::FlowAggregate flow_aggregate;
};

/// What the monitor observed of one finished stream. Its whole-run
/// metrics are the evaluation's comparison of the same run.
struct StreamResult {
  std::uint32_t ordinal = 0;  ///< monitored-stream ordinal (0-based)
  std::string name;
  std::size_t packets = 0;
  std::size_t windows = 0;
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

/// One finished run and the reference it is windowed against, as an
/// experiment's round close holds them. Every span is empty or parallel
/// to its trial; flow ids are in the reference's id space (kNoFlow for
/// unclassified packets), and `flow_count` is that space's size.
struct MonitoredRun {
  const core::Trial& reference;  ///< run A: occurrence-tagged, rebased
  std::span<const flow::FlowId> reference_flows = {};
  const core::Trial& trial;  ///< run B: occurrence-tagged, rebased
  Ns origin = 0;             ///< raw sim arrival time of B's first packet
  std::span<const flow::FlowId> flows = {};
  std::size_t flow_count = 0;
};

class StreamMonitor {
 public:
  explicit StreamMonitor(MonitorConfig config = {});
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Window the finished run `name` against its reference: B positions
  /// [k·w, (k+1)·w) each close one window, the last one possibly short.
  /// Flow ids on both sides enable a window's per-flow κ. Nothing of
  /// `run` is kept once this returns.
  void monitor_run(const std::string& name, const MonitoredRun& run);

  const MonitorConfig& config() const { return config_; }
  const std::vector<WindowRecord>& windows() const { return windows_; }
  const std::vector<StreamResult>& streams() const { return streams_; }
  const std::vector<DivergenceRecord>& divergence() const {
    return divergence_;
  }

 private:
  /// Compare and attribute the window of B positions [window.b_begin,
  /// window.b_end); its comparison is freed before the record is kept.
  WindowRecord close_window(const MonitoredRun& run, WindowRecord window);
  void attribute_window(const MonitoredRun& run,
                        const core::ComparisonResult& cmp,
                        const WindowRecord& window);

  MonitorConfig config_;

  // Comparison arena for window closes: one scratch serves every
  // compare, and it never grows past one window. The slice trials and
  // attribution buffers are reused across windows too, so a warm monitor
  // closes windows without growing them.
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

  // Telemetry (null handles when no session is installed).
  telemetry::CounterHandle tm_windows_;
  telemetry::CounterHandle tm_streams_;
  telemetry::GaugeHandle tm_window_kappa_ppm_;
  telemetry::GaugeHandle tm_window_flow_kappa_ppm_;  ///< worst flow κ
  std::uint32_t tm_track_ = 0;
};

}  // namespace choir::monitor
