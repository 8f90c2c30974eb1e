#include "choir/group.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/expect.hpp"

namespace choir::app {

namespace {

constexpr std::uint64_t kProgressMask = 0xffffffffULL;
constexpr std::uint64_t kRoundMask = 0xfffULL;

}  // namespace

const char* member_state_name(MemberState state) {
  switch (state) {
    case MemberState::kJoining: return "JOINING";
    case MemberState::kReady: return "READY";
    case MemberState::kReplaying: return "REPLAYING";
    case MemberState::kStraggling: return "STRAGGLING";
    case MemberState::kResyncing: return "RESYNCING";
    case MemberState::kDone: return "DONE";
    case MemberState::kEvicted: return "EVICTED";
  }
  return "?";
}

std::uint64_t pack_beacon(std::uint16_t member, BeaconPhase phase,
                          std::uint16_t round, Ns progress) {
  const std::uint64_t us = std::min<std::uint64_t>(
      kProgressMask,
      static_cast<std::uint64_t>(std::max<Ns>(0, progress) / kNsPerUs));
  return (static_cast<std::uint64_t>(member) << 48) |
         ((static_cast<std::uint64_t>(phase) & 0xf) << 44) |
         ((static_cast<std::uint64_t>(round) & kRoundMask) << 32) | us;
}

BeaconFields unpack_beacon(std::uint64_t arg) {
  BeaconFields f;
  f.member = static_cast<std::uint16_t>(arg >> 48);
  f.phase = static_cast<BeaconPhase>((arg >> 44) & 0xf);
  f.round = static_cast<std::uint16_t>((arg >> 32) & kRoundMask);
  f.progress = static_cast<Ns>(arg & kProgressMask) * kNsPerUs;
  return f;
}

GroupCoordinator::GroupCoordinator(sim::EventQueue& queue,
                                   sim::NodeClock& clock, net::Vf& vf,
                                   pktio::Mempool& pool, GroupConfig config,
                                   Rng rng, sim::PtpService* ptp)
    : queue_(queue),
      dev_("group-ctl", vf),
      cfg_(config),
      ptp_(ptp),
      ctl_(queue, clock, vf, pool),
      loop_(queue, vf, net::PollLoopConfig{}, rng.split(0x504f4c), "group") {
  loop_.set_handler([this] { return on_poll(); });
  if (telemetry::Registry::current() != nullptr) {
    tm_transitions_ = telemetry::counter("group.transitions");
    tm_track_ = telemetry::track("group");
  }
  exposure_.counter("group.beacons_rx", stats_.beacons_rx);
  exposure_.counter("group.stragglers", stats_.stragglers_detected);
  exposure_.counter("group.resyncs", stats_.resyncs_sent);
  exposure_.counter("group.evictions", stats_.evictions);
  exposure_.counter("group.ready_timeouts", stats_.ready_timeouts);
  exposure_.counter("group.rounds", stats_.rounds_started);
}

std::size_t GroupCoordinator::add_member(std::uint16_t id,
                                         const pktio::FlowAddress& ctl_flow,
                                         std::size_t ptp_slave) {
  GroupMemberStatus m;
  m.id = id;
  m.ctl_flow = ctl_flow;
  m.ptp_slave = ptp_slave;
  members_.push_back(m);
  return members_.size() - 1;
}

void GroupCoordinator::start() { loop_.start(); }

void GroupCoordinator::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (recorder != nullptr) spans_.set_node(recorder->node());
  ctl_.set_flight_recorder(recorder);
}

void GroupCoordinator::flight(obs::FlightEvent e, bool sampled) {
  if (flight_ == nullptr) return;
  e.t_wall = ctl_.wall_now();
  if (sampled) {
    flight_->record_sampled(e);
  } else {
    flight_->record(e);
  }
}

int GroupCoordinator::surviving() const {
  int n = 0;
  for (const auto& m : members_) n += m.state != MemberState::kEvicted;
  return n;
}

bool GroupCoordinator::on_poll() {
  pktio::Mbuf* burst[pktio::kMaxBurst];
  const std::uint16_t n = dev_.rx_burst(burst, pktio::kMaxBurst);
  if (n == 0) return false;
  for (std::uint16_t i = 0; i < n; ++i) {
    if (const auto msg = decode_control(burst[i]->frame);
        msg && msg->op == Op::kBeacon) {
      handle_beacon(unpack_beacon(msg->arg), msg->trace);
    }
    pktio::Mempool::release(burst[i]);
  }
  return true;
}

void GroupCoordinator::set_state(GroupMemberStatus& m, MemberState next) {
  if (m.state == next) return;
  m.state = next;
  tm_transitions_.add();
  {
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kStateTransition;
    e.peer = m.id;
    e.code = static_cast<std::uint16_t>(next);
    e.round = current_round_;
    e.trace = obs::round_trace_id(current_round_);
    flight(e);
  }
  if (auto* tracer = telemetry::tracer()) {
    char args[64];
    std::snprintf(args, sizeof(args), "{\"member\":%u,\"state\":\"%s\"}",
                  static_cast<unsigned>(m.id), member_state_name(next));
    tracer->instant("group-transition", queue_.now(), tm_track_, args);
  }
}

void GroupCoordinator::handle_beacon(const BeaconFields& fields,
                                     std::uint64_t trace_word) {
  GroupMemberStatus* member = nullptr;
  for (auto& m : members_) {
    if (m.id == fields.member) {
      member = &m;
      break;
    }
  }
  if (member == nullptr) {
    ++stats_.beacons_malformed;
    return;
  }
  ++stats_.beacons_rx;
  GroupMemberStatus& m = *member;
  // Edge-triggered beacon logging: heartbeats arrive every
  // beacon_interval, but only phase/round edges (and the first beacon)
  // carry state information — recording just those keeps the ring from
  // flushing real evidence with heartbeat spam.
  if (m.last_beacon_at < 0 || fields.phase != m.phase ||
      fields.round != m.beacon_round) {
    const obs::TraceContext ctx = obs::unpack_trace(trace_word);
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kBeaconRecv;
    e.peer = m.id;
    e.code = static_cast<std::uint16_t>(Op::kBeacon);
    e.a = fields.progress;
    e.b = static_cast<std::uint64_t>(fields.phase);
    e.round = obs::round_of_trace(ctx.trace) >= 0 ? obs::round_of_trace(ctx.trace)
                                                  : static_cast<int>(fields.round);
    e.trace = ctx.trace;
    e.parent = ctx.span;
    e.span = flight_ != nullptr ? spans_.next() : 0;
    flight(e, /*sampled=*/true);
  }
  m.last_beacon_at = queue_.now();
  m.progress = fields.progress;
  m.phase = fields.phase;
  m.beacon_round = fields.round;
  ++m.beacons;
  if (m.state == MemberState::kEvicted) return;  // eviction is permanent

  const bool this_round =
      current_round_ >= 0 &&
      fields.round == static_cast<std::uint16_t>(current_round_ & 0xfff);
  if (m.state == MemberState::kJoining && this_round &&
      fields.phase != BeaconPhase::kIdle) {
    set_state(m, MemberState::kReady);
  }
  if (m.started_round == current_round_ && this_round &&
      fields.phase == BeaconPhase::kDone &&
      (m.state == MemberState::kReplaying ||
       m.state == MemberState::kStraggling ||
       m.state == MemberState::kResyncing)) {
    set_state(m, MemberState::kDone);
  }
}

void GroupCoordinator::broadcast_record(Ns start_at, Ns stop_at) {
  for (auto& m : members_) {
    ControlMessage start{Op::kStartRecord, 0};
    start.trace = obs::pack_trace(
        obs::TraceContext{obs::kRecordTraceId, spans_.next()});
    ctl_.send_at(start_at, m.ctl_flow, start);
    ControlMessage stop{Op::kStopRecord, 0};
    stop.trace = obs::pack_trace(
        obs::TraceContext{obs::kRecordTraceId, spans_.next()});
    ctl_.send_at(stop_at, m.ctl_flow, stop);
  }
}

void GroupCoordinator::schedule_round(int round, Ns prepare_at, Ns barrier_at,
                                      Ns wall_start, Ns round_end) {
  CHOIR_EXPECT(round >= 0 && round <= 0xfff,
               "group rounds must fit the beacon's 12-bit round field");
  CHOIR_EXPECT(prepare_at < barrier_at && barrier_at < round_end,
               "group round schedule out of order");
  queue_.schedule_at(prepare_at, sim::Component::kGroup,
                     [this, round] { run_prepare(round); });
  queue_.schedule_at(barrier_at, sim::Component::kGroup,
                     [this, round, wall_start, round_end] {
                       run_barrier(round, wall_start, round_end);
                     });
}

void GroupCoordinator::run_prepare(int round) {
  current_round_ = round;
  {
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kRoundStart;
    e.round = round;
    e.trace = obs::round_trace_id(round);
    e.span = spans_.next();
    flight(e);
  }
  for (auto& m : members_) {
    if (m.state == MemberState::kEvicted) continue;
    ControlMessage prepare{Op::kGroupPrepare,
                           static_cast<std::uint64_t>(round)};
    prepare.trace = trace_for_round(round);
    ctl_.send_at(queue_.now(), m.ctl_flow, prepare);
    set_state(m, MemberState::kJoining);
  }
}

void GroupCoordinator::run_barrier(int round, Ns wall_start, Ns round_end) {
  ++stats_.rounds_started;
  round_anchor_ = queue_.now();
  for (auto& m : members_) {
    if (m.state == MemberState::kEvicted) continue;
    if (ptp_ != nullptr && m.ptp_slave < ptp_->slave_count()) {
      m.barrier_residual_ns = ptp_->last_offset_ns(m.ptp_slave);
      stats_.barrier_worst_residual_ns =
          std::max(stats_.barrier_worst_residual_ns,
                   std::fabs(m.barrier_residual_ns));
      obs::FlightEvent e{};
      e.kind = obs::EventKind::kBarrierSample;
      e.peer = m.id;
      e.f = m.barrier_residual_ns;
      e.round = round;
      e.trace = obs::round_trace_id(round);
      flight(e);
    }
    // Readiness deadline: only members that acknowledged THIS round's
    // prepare (their beacon carries the round number) pass the barrier.
    const bool ready =
        m.state == MemberState::kReady &&
        m.beacon_round == static_cast<std::uint16_t>(round & 0xfff);
    if (!ready) {
      ++stats_.ready_timeouts;
      continue;
    }
    ControlMessage start{Op::kStartReplay,
                         static_cast<std::uint64_t>(wall_start)};
    start.trace = trace_for_round(round);
    ctl_.send_at(queue_.now(), m.ctl_flow, start);
    m.started_round = round;
    ++stats_.members_started;
    set_state(m, MemberState::kReplaying);
  }
  queue_.schedule_in(cfg_.check_interval, sim::Component::kGroup,
                     [this, round, round_end] { check(round, round_end); });
}

void GroupCoordinator::check(int round, Ns round_end) {
  const Ns now = queue_.now();

  // The group replay horizon: the furthest recorded-timeline offset any
  // surviving member of this round has confirmed.
  Ns horizon = 0;
  for (const auto& m : members_) {
    if (m.state == MemberState::kEvicted || m.started_round != round) continue;
    horizon = std::max(horizon, m.progress);
  }

  for (auto& m : members_) {
    if (m.state == MemberState::kEvicted) continue;
    // Eviction: beacon-silent past the timeout (measured from the later
    // of the last beacon and this round's barrier, so a node that died
    // before the round is judged from the barrier, not from prehistory).
    const Ns silence = now - std::max(m.last_beacon_at, round_anchor_);
    if (silence > cfg_.eviction_timeout) {
      set_state(m, MemberState::kEvicted);
      ++stats_.evictions;
      obs::FlightEvent e{};
      e.kind = obs::EventKind::kEvict;
      e.peer = m.id;
      e.a = silence;
      e.round = round;
      e.trace = obs::round_trace_id(round);
      flight(e);
      continue;
    }
    if (m.started_round != round || m.state == MemberState::kDone) continue;

    const Ns lag = horizon - m.progress;
    const bool lagging = lag > cfg_.straggle_threshold;
    if (m.state == MemberState::kReplaying && lagging) {
      set_state(m, MemberState::kStraggling);
      ++m.straggles;
      ++stats_.stragglers_detected;
      {
        obs::FlightEvent e{};
        e.kind = obs::EventKind::kStraggle;
        e.peer = m.id;
        e.a = lag;
        e.b = static_cast<std::uint64_t>(horizon);
        e.round = round;
        e.trace = obs::round_trace_id(round);
        flight(e);
      }
      const Ns target = std::max<Ns>(0, horizon - cfg_.resync_slack);
      ControlMessage resync{Op::kGroupResync,
                            static_cast<std::uint64_t>(target)};
      resync.trace = trace_for_round(round);
      ctl_.send_at(now, m.ctl_flow, resync);
      ++m.resyncs;
      ++stats_.resyncs_sent;
      {
        obs::FlightEvent e{};
        e.kind = obs::EventKind::kResyncCmd;
        e.peer = m.id;
        e.a = target;
        e.round = round;
        const obs::TraceContext ctx = obs::unpack_trace(resync.trace);
        e.trace = ctx.trace;
        e.span = ctx.span;
        flight(e);
      }
      m.last_resync_at = now;
      set_state(m, MemberState::kResyncing);
    } else if ((m.state == MemberState::kStraggling ||
                m.state == MemberState::kResyncing) &&
               lagging && m.last_resync_at >= 0 &&
               now - m.last_resync_at >= cfg_.resync_retry) {
      // The previous resync evidently did not land (lossy control path
      // or the member moved on); re-command against the fresh horizon.
      const Ns target = std::max<Ns>(0, horizon - cfg_.resync_slack);
      ControlMessage resync{Op::kGroupResync,
                            static_cast<std::uint64_t>(target)};
      resync.trace = trace_for_round(round);
      ctl_.send_at(now, m.ctl_flow, resync);
      ++m.resyncs;
      ++stats_.resyncs_sent;
      {
        obs::FlightEvent e{};
        e.kind = obs::EventKind::kResyncCmd;
        e.peer = m.id;
        e.a = target;
        e.round = round;
        const obs::TraceContext ctx = obs::unpack_trace(resync.trace);
        e.trace = ctx.trace;
        e.span = ctx.span;
        flight(e);
      }
      m.last_resync_at = now;
    } else if ((m.state == MemberState::kStraggling ||
                m.state == MemberState::kResyncing) &&
               !lagging) {
      set_state(m, MemberState::kReplaying);
      ++stats_.rejoins;
    }
  }

  if (now + cfg_.check_interval <= round_end) {
    queue_.schedule_in(cfg_.check_interval, sim::Component::kGroup,
                       [this, round, round_end] { check(round, round_end); });
  } else {
    finalize_round(round);
  }
}

void GroupCoordinator::finalize_round(int round) {
  bool clean = true;
  for (const auto& m : members_) clean &= m.state == MemberState::kDone;
  if (clean) {
    ++stats_.rounds_completed;
  } else {
    ++stats_.rounds_degraded;
  }
  {
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kRoundEnd;
    e.round = round;
    e.a = clean ? 1 : 0;
    e.code = static_cast<std::uint16_t>(surviving());
    e.trace = obs::round_trace_id(round);
    flight(e);
  }
  if (auto* tracer = telemetry::tracer()) {
    char args[64];
    std::snprintf(args, sizeof(args),
                  "{\"round\":%d,\"clean\":%s,\"surviving\":%d}", round,
                  clean ? "true" : "false", surviving());
    tracer->instant("group-round-end", queue_.now(), tm_track_, args);
  }
}

}  // namespace choir::app
