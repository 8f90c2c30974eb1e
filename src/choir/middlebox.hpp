// The Choir middlebox: transparent forwarder, recorder, and TSC-paced
// replayer (Section 4 of the paper).
//
// In standby it bridges its in-port to its out-port at line rate,
// unmodified. On StartRecord it additionally stamps each packet with the
// evaluation trailer and holds the transmitted bursts (zero-copy) with
// their transmit TSC. On StartReplay(T) it computes the TSC delta for
// wall-clock time T and re-transmits every burst when its recorded TSC
// plus the delta comes due, reproducing the recorded pacing up to the
// check-loop granularity and the NIC's DMA-pull bound.
#pragma once

#include <cstdint>

#include "choir/config.hpp"
#include "choir/control.hpp"
#include "choir/recording.hpp"
#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "net/poll_loop.hpp"
#include "pktio/ethdev.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/tag.hpp"

namespace choir::app {

struct MiddleboxStats {
  std::uint64_t forwarded = 0;
  std::uint64_t recorded = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t replays_started = 0;
  std::uint64_t replayed_bursts = 0;
  std::uint64_t replayed_packets = 0;
  std::uint64_t record_overflow = 0;  ///< packets past the RAM bound
  std::uint64_t breakpoint_hits = 0;
  std::uint64_t forward_drops = 0;    ///< tx ring full while forwarding
  std::uint64_t tx_ring_retries = 0;  ///< replay spins on a full tx ring
  std::uint64_t control_duplicates = 0;  ///< sequenced commands deduped
  std::uint64_t replay_resyncs = 0;   ///< pacing re-anchored after a stall
  std::uint64_t recordings_truncated = 0;  ///< finalized with overflow
  // Group-member accounting (all zero unless enable_group() was called).
  std::uint64_t group_beacons_sent = 0;
  std::uint64_t group_beacon_failures = 0;  ///< pool dry or tx rejected
  std::uint64_t group_prepares = 0;         ///< rounds fenced
  std::uint64_t group_resyncs = 0;          ///< fast-forward commands obeyed
  std::uint64_t group_skipped_packets = 0;  ///< packets jumped by resyncs
  std::uint64_t replays_aborted = 0;        ///< replays cut by a prepare
};

class Middlebox {
 public:
  Middlebox(sim::EventQueue& queue, sim::NodeClock& clock, net::Vf& in,
            net::Vf& out, ChoirConfig config, Rng rng);

  /// Begin standby forwarding.
  void start();

  // Control-plane operations; also reachable via in-band control frames.
  void start_record();
  void stop_record();
  void clear_recording();

  /// Schedule a replay to begin at wall-clock time `wall_start` as seen
  /// by this node's (PTP-disciplined) system clock.
  void schedule_replay(Ns wall_start);

  /// Group-member mode (docs/DISTRIBUTED.md): the middlebox answers the
  /// group prepare/resync commands and streams beacons to `beacon_flow`
  /// every `beacon_interval` through its out-port (so NIC faults apply).
  /// Beacons draw from `pool` — a dedicated pool, so beacon pressure
  /// never competes with the data path. Deterministic: the beacon loop
  /// consumes no RNG.
  struct GroupMemberOptions {
    pktio::FlowAddress beacon_flow;
    Ns beacon_interval = microseconds(500);
  };
  void enable_group(pktio::Mempool& pool, const GroupMemberOptions& options);
  bool group_enabled() const { return group_enabled_; }

  /// Attach this node's flight recorder (null-check hook): executed
  /// control ops, replay lifecycle, resync applications, and beacon
  /// phase edges are ring-logged with the trace context each command
  /// carried, so the member's reactions link back to the coordinator's
  /// decisions in the merged timeline.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
    if (recorder != nullptr) spans_.set_node(recorder->node());
  }
  /// Round last fenced by a kGroupPrepare (-1: none).
  std::int64_t prepared_round() const { return prepared_round_; }

  bool recording_active() const { return recording_active_; }
  bool replay_active() const { return replay_cursor_ > 0 || replay_armed_; }
  const Recording& recording() const { return recording_; }
  const MiddleboxStats& stats() const { return stats_; }
  const ChoirConfig& config() const { return config_; }

  /// The middlebox's port devices, exposed so a fault injector can hook
  /// them as named NIC injection points.
  pktio::EthDev& in_dev() { return in_dev_; }
  pktio::EthDev& out_dev() { return out_dev_; }

  /// Debugging primitive built on rolling recording: when `predicate`
  /// matches a forwarded frame, recording freezes right after that frame
  /// — the buffer then holds the traffic leading up to the event (a
  /// backtrace) ready for replay. One-shot; cleared when it fires.
  void set_breakpoint(std::function<bool(const pktio::Frame&)> predicate) {
    breakpoint_ = std::move(predicate);
  }
  bool breakpoint_armed() const { return static_cast<bool>(breakpoint_); }

 private:
  bool on_poll();
  void handle_control(const ControlMessage& msg);
  void begin_replay(Ns true_start, std::uint64_t tsc_delta);
  void replay_step();
  void emit_burst_from(std::size_t offset);
  void finish_burst();
  void abort_replay();
  void group_prepare(std::int64_t round);
  void group_resync(Ns target_offset);
  void send_beacon();
  Ns replay_progress() const;
  /// Ring-log a member event (no-op without a recorder; stamps this
  /// node's believed wall clock).
  void flight(obs::FlightEvent e, bool sampled = false);

  sim::EventQueue& queue_;
  sim::NodeClock& clock_;
  pktio::EthDev in_dev_;
  pktio::EthDev out_dev_;
  net::Vf& out_vf_;
  ChoirConfig config_;
  Rng rng_;
  net::PollLoop loop_;

  Recording recording_;
  bool recording_active_ = false;
  std::uint64_t next_tag_seq_ = 0;
  std::uint32_t last_ctl_seq_ = 0;  ///< highest executed sequenced command
  std::uint64_t overflow_at_record_start_ = 0;
  std::function<bool(const pktio::Frame&)> breakpoint_;

  // Replay state machine (chained events, one per burst). The epoch
  // invalidates in-flight pace/emit events when a group prepare or
  // resync rewrites the replay state out from under them.
  bool replay_armed_ = false;
  std::size_t replay_cursor_ = 0;
  std::uint64_t replay_tsc_delta_ = 0;
  std::uint64_t replay_epoch_ = 0;
  Ns loop_free_at_ = 0;
  Ns slip_until_ = 0;

  // Group-member state.
  bool group_enabled_ = false;
  GroupMemberOptions group_;
  pktio::Mempool* beacon_pool_ = nullptr;
  std::int64_t prepared_round_ = -1;
  std::int64_t done_round_ = -1;

  // Flight recorder + causal context (docs/POSTMORTEM.md). group_ctx_
  // is the member's reaction span for the last traced command it
  // executed; beacons carry it back to the coordinator.
  obs::FlightRecorder* flight_ = nullptr;
  obs::SpanAllocator spans_;
  obs::TraceContext group_ctx_;
  std::uint16_t last_beacon_logged_ = 0xffff;  ///< phase<<12 | round edge

  MiddleboxStats stats_;
  telemetry::Exposure exposure_;  ///< stats_ as middlebox.<id>.* counters

  // Telemetry-only instruments (null handles when no session is
  // installed).
  telemetry::HistogramHandle tm_forward_latency_;
  telemetry::HistogramHandle tm_pacing_error_;
  telemetry::HistogramHandle tm_replay_slack_;
  telemetry::HistogramHandle tm_replay_overshoot_;
  std::uint32_t tm_track_ = 0;
  Ns record_started_at_ = -1;   ///< -1: not recording (for the span)
  Ns replay_started_at_ = 0;
  Ns replay_target_ns_ = 0;     ///< scheduled TX time of the due burst
};

}  // namespace choir::app
