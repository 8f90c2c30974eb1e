// Replay-group protocol: N-node barrier-started replay with straggler
// detection, resync, and quorum degradation (docs/DISTRIBUTED.md).
//
// One GroupCoordinator drives N replay middleboxes ("members") over the
// in-band control channel. Members stream small beacon frames back to
// the coordinator's NIC; each beacon packs the member id, its replay
// phase, the round it has prepared, and its recorded-timeline progress.
// From those the coordinator runs a per-member health state machine
//
//   JOINING -> READY -> REPLAYING -> STRAGGLING -> RESYNCING
//                                  \-> DONE            \-> EVICTED
//
// Rounds are barrier-started: a prepare command fences the round, the
// barrier at the readiness deadline starts only the members that
// acknowledged it (sampling each member's last PTP residual as the
// barrier's sync quality), and periodic checks afterwards compare every
// member's progress against the group replay horizon. A laggard is
// resynced — commanded to fast-forward to the horizon — and an
// unresponsive member is evicted; the round then completes on the
// surviving quorum and per-flow kappa attributes the damage to the
// missing flow shard.
//
// Everything rides the existing sequenced, retried control channel, and
// every decision is a pure function of simulated time and beacon
// contents — a group run is bit-reproducible like any other experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "choir/controller.hpp"
#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "net/poll_loop.hpp"
#include "pktio/ethdev.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/ptp.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::app {

enum class MemberState : std::uint8_t {
  kJoining,     ///< prepare sent; readiness not yet acknowledged
  kReady,       ///< acknowledged the current round's prepare
  kReplaying,   ///< started at the barrier; progressing with the group
  kStraggling,  ///< progress lags the group horizon past the threshold
  kResyncing,   ///< resync commanded; waiting for it to catch up
  kDone,        ///< finished the current round's replay
  kEvicted,     ///< beacon-silent past the eviction timeout (permanent)
};

const char* member_state_name(MemberState state);

/// Replay phase a member folds into its beacons (coarser than the
/// coordinator-side MemberState, which adds the health verdicts).
enum class BeaconPhase : std::uint8_t {
  kIdle = 0,      ///< no round prepared
  kReady = 1,     ///< prepared, replay not started
  kReplaying = 2, ///< replay in flight
  kDone = 3,      ///< prepared round's replay completed
};

/// Beacon argument packing: member[63:48] | phase[47:44] | round[43:32]
/// | progress[31:0] in whole microseconds of the recorded timeline.
std::uint64_t pack_beacon(std::uint16_t member, BeaconPhase phase,
                          std::uint16_t round, Ns progress);

struct BeaconFields {
  std::uint16_t member = 0;
  BeaconPhase phase = BeaconPhase::kIdle;
  std::uint16_t round = 0;
  Ns progress = 0;  ///< microsecond-granular (the pack truncates)
};

BeaconFields unpack_beacon(std::uint64_t arg);

struct GroupConfig {
  /// Member beacon cadence (the member side copies this).
  Ns beacon_interval = microseconds(500);
  /// Coordinator health-check cadence during a round.
  Ns check_interval = milliseconds(1);
  /// Progress lag behind the group horizon that flags a straggler.
  Ns straggle_threshold = milliseconds(2);
  /// Beacon silence that evicts a member (measured from the later of
  /// its last beacon and the round's barrier).
  Ns eviction_timeout = milliseconds(10);
  /// Resync target sits this far behind the horizon, so the rejoining
  /// member lands just before the group instead of ahead of it.
  Ns resync_slack = microseconds(100);
  /// A straggler that stays behind is re-commanded after this long
  /// (covers a resync command lost on a lossy control path).
  Ns resync_retry = milliseconds(2);
};

struct GroupMemberStatus {
  std::uint16_t id = 0;
  MemberState state = MemberState::kJoining;
  pktio::FlowAddress ctl_flow;          ///< coordinator -> member commands
  std::size_t ptp_slave = SIZE_MAX;     ///< index into the PTP sync group
  Ns last_beacon_at = -1;               ///< -1: never heard from
  Ns progress = 0;                      ///< recorded-timeline offset (ns)
  BeaconPhase phase = BeaconPhase::kIdle;
  std::uint16_t beacon_round = 0;       ///< round the member reports
  int started_round = -1;               ///< last round it passed the barrier
  Ns last_resync_at = -1;
  std::uint64_t beacons = 0;
  std::uint64_t resyncs = 0;            ///< resync commands sent to it
  std::uint64_t straggles = 0;          ///< times flagged lagging
  double barrier_residual_ns = 0.0;     ///< PTP residual at the last barrier
  // Control-channel accounting toward this member (filled from the
  // coordinator's Controller::dest_stats by the experiment harness).
  std::uint64_t ctl_sent = 0;
  std::uint64_t ctl_retries = 0;
  std::uint64_t ctl_send_failures = 0;
  std::uint64_t ctl_timeouts = 0;
};

struct GroupStats {
  std::uint64_t beacons_rx = 0;
  std::uint64_t beacons_malformed = 0;  ///< unknown member id
  std::uint64_t rounds_started = 0;
  std::uint64_t rounds_completed = 0;   ///< every surviving member kDone
  std::uint64_t rounds_degraded = 0;    ///< a member missed/lost the round
  std::uint64_t members_started = 0;    ///< barrier starts issued, total
  std::uint64_t ready_timeouts = 0;     ///< barrier reached, member not ready
  std::uint64_t stragglers_detected = 0;
  std::uint64_t resyncs_sent = 0;
  std::uint64_t rejoins = 0;            ///< straggler back inside threshold
  std::uint64_t evictions = 0;
  double barrier_worst_residual_ns = 0.0;  ///< worst |residual| at any barrier
};

/// Drives a replay group from a dedicated controller node: owns the
/// control client (sequenced + retry/backoff) and a poll loop on the
/// coordinator NIC's VF that drains member beacons.
class GroupCoordinator {
 public:
  GroupCoordinator(sim::EventQueue& queue, sim::NodeClock& clock,
                   net::Vf& vf, pktio::Mempool& pool, GroupConfig config,
                   Rng rng, sim::PtpService* ptp = nullptr);

  /// Register a member before start(). `ptp_slave` (when valid) lets the
  /// barrier sample the member's last-applied PTP residual.
  std::size_t add_member(std::uint16_t id, const pktio::FlowAddress& ctl_flow,
                         std::size_t ptp_slave = SIZE_MAX);

  /// Begin draining beacons.
  void start();

  /// Attach the coordinator node's flight recorder (null-check hook):
  /// round lifecycle, state transitions, barrier samples, straggle /
  /// resync / eviction decisions, and beacon edges are ring-logged, and
  /// the controller underneath logs every wire-level TX attempt.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Command every member to record over [start_at, stop_at].
  void broadcast_record(Ns start_at, Ns stop_at);

  /// Schedule one replay round: prepare fence at `prepare_at`, barrier
  /// (readiness deadline + start commands) at `barrier_at`, replay
  /// wall-clock start `wall_start`, health checks until `round_end`.
  void schedule_round(int round, Ns prepare_at, Ns barrier_at, Ns wall_start,
                      Ns round_end);

  Controller& controller() { return ctl_; }
  const Controller& controller() const { return ctl_; }
  const GroupConfig& config() const { return cfg_; }
  const std::vector<GroupMemberStatus>& members() const { return members_; }
  const GroupStats& stats() const { return stats_; }
  /// Members not evicted (the surviving quorum).
  int surviving() const;

 private:
  bool on_poll();
  void handle_beacon(const BeaconFields& fields, std::uint64_t trace_word);
  void run_prepare(int round);
  void run_barrier(int round, Ns wall_start, Ns round_end);
  void check(int round, Ns round_end);
  void finalize_round(int round);
  void set_state(GroupMemberStatus& m, MemberState next);
  /// Ring-log a coordinator decision (no-op without a recorder; stamps
  /// the coordinator's believed wall clock).
  void flight(obs::FlightEvent e, bool sampled = false);
  /// Fresh child span inside `round`'s trace, packed for the wire.
  std::uint64_t trace_for_round(int round) {
    return obs::pack_trace(
        obs::TraceContext{obs::round_trace_id(round), spans_.next()});
  }

  sim::EventQueue& queue_;
  pktio::EthDev dev_;
  GroupConfig cfg_;
  sim::PtpService* ptp_;
  Controller ctl_;
  net::PollLoop loop_;
  std::vector<GroupMemberStatus> members_;
  GroupStats stats_;
  int current_round_ = -1;
  Ns round_anchor_ = 0;  ///< the current round's barrier instant
  obs::FlightRecorder* flight_ = nullptr;
  obs::SpanAllocator spans_;

  telemetry::CounterHandle tm_transitions_;
  std::uint32_t tm_track_ = 0;
  telemetry::Exposure exposure_;
};

}  // namespace choir::app
