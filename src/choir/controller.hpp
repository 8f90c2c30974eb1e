// User-side control client: issues record/replay commands to middleboxes
// over the (in-band) control channel, the way the paper's Jupyter driver
// does over FABlib.
//
// The channel is fire-and-forget UDP, so robustness against loss is
// blind retransmission: with retry enabled every command is sent up to
// `max_attempts` times, spaced by exponentially growing backoff and cut
// off by a per-command timeout. Each command carries a fresh sequence
// number and middleboxes deduplicate, so redundant copies are harmless.
// The default config (one attempt) is byte-identical to the original
// single-shot behaviour.
#pragma once

#include <vector>

#include "choir/control.hpp"
#include "common/units.hpp"
#include "obs/flight_recorder.hpp"
#include "pktio/mbuf.hpp"
#include "net/nic.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::app {

/// Control-channel accounting toward one destination node (keyed by the
/// node index recoverable from the command flow's destination IP), so a
/// group summary can say *which* member's control path was lossy
/// instead of one aggregate counter.
struct ControlDestStats {
  std::uint16_t node = 0;
  std::uint64_t sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t timeouts = 0;
};

struct ControlRetryConfig {
  /// Total transmissions per command (1 = no redundancy, the default —
  /// and the default also leaves frames unsequenced, so behaviour is
  /// bit-identical to the pre-retry controller).
  std::uint32_t max_attempts = 1;
  /// Gap between attempt k and k+1 is initial_backoff * multiplier^k.
  Ns initial_backoff = microseconds(100);
  double multiplier = 2.0;
  /// No attempt is scheduled later than this after the first.
  Ns timeout = milliseconds(4);
};

class Controller {
 public:
  Controller(sim::EventQueue& queue, sim::NodeClock& clock, net::Vf& vf,
             pktio::Mempool& pool)
      : queue_(queue), clock_(clock), vf_(vf), pool_(pool) {
    exposure_.counter("controller.sent", sent_);
    exposure_.counter("controller.retries", retries_);
    exposure_.counter("controller.send_failures", send_failures_);
    exposure_.counter("controller.timeouts", timeouts_);
  }

  void set_retry(const ControlRetryConfig& retry) { retry_ = retry; }
  const ControlRetryConfig& retry() const { return retry_; }

  /// Attach the controlling node's flight recorder (null-check hook,
  /// same zero-perturbation discipline as telemetry): every TX attempt,
  /// local send failure, and retry-window timeout is ring-logged with
  /// the message's trace context.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  /// Send a control message to the middlebox addressed by `flow`, at
  /// simulated time `at` (the command dispatch instant). With retry
  /// enabled the command is assigned the next sequence number and
  /// retransmitted on the backoff schedule.
  void send_at(Ns at, const pktio::FlowAddress& flow,
               const ControlMessage& msg);

  void start_record(Ns at, const pktio::FlowAddress& flow) {
    send_at(at, flow, ControlMessage{Op::kStartRecord, 0});
  }
  void stop_record(Ns at, const pktio::FlowAddress& flow) {
    send_at(at, flow, ControlMessage{Op::kStopRecord, 0});
  }
  /// Command a replay to start at wall-clock `wall_start` (this
  /// controller's clock and the middlebox's clock agree only as well as
  /// PTP synchronized them).
  void start_replay(Ns at, const pktio::FlowAddress& flow, Ns wall_start) {
    send_at(at, flow,
            ControlMessage{Op::kStartReplay,
                           static_cast<std::uint64_t>(wall_start)});
  }
  void clear_recording(Ns at, const pktio::FlowAddress& flow) {
    send_at(at, flow, ControlMessage{Op::kClearRecording, 0});
  }

  /// This controller's current wall-clock reading.
  Ns wall_now() const { return clock_.system.read(queue_.now()); }

  std::uint64_t sent() const { return sent_; }
  /// Redundant retransmissions performed (attempts beyond the first).
  std::uint64_t retries() const { return retries_; }
  /// Attempts that failed locally (pool exhausted or tx ring rejected).
  /// These degrade to a counter — a remaining retry may still land.
  std::uint64_t send_failures() const { return send_failures_; }
  /// Commands whose backoff schedule was cut off by the per-command
  /// timeout with attempts still remaining — the command exhausted its
  /// window without any confirmation it landed. Distinct from retries():
  /// a retried command that fit its window never counts here.
  std::uint64_t timeouts() const { return timeouts_; }

  /// Per-destination accounting, in first-command order.
  const std::vector<ControlDestStats>& dest_stats() const { return dests_; }
  /// Stats toward one node; nullptr if never commanded.
  const ControlDestStats* dest(std::uint16_t node) const {
    for (const auto& d : dests_) {
      if (d.node == node) return &d;
    }
    return nullptr;
  }

 private:
  void attempt(const pktio::FlowAddress& flow, const ControlMessage& msg,
               std::uint32_t attempt_no);
  ControlDestStats& dest_slot(std::uint16_t node);

  sim::EventQueue& queue_;
  sim::NodeClock& clock_;
  net::Vf& vf_;
  pktio::Mempool& pool_;
  ControlRetryConfig retry_;
  std::uint32_t next_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t send_failures_ = 0;
  std::uint64_t timeouts_ = 0;
  std::vector<ControlDestStats> dests_;
  obs::FlightRecorder* flight_ = nullptr;
  telemetry::Exposure exposure_;
};

}  // namespace choir::app
