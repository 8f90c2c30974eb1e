#include "choir/middlebox.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "choir/group.hpp"
#include "common/expect.hpp"

namespace choir::app {

namespace {
std::string middlebox_label(const ChoirConfig& config) {
  return "middlebox." + std::to_string(config.replayer_id);
}
}  // namespace

Middlebox::Middlebox(sim::EventQueue& queue, sim::NodeClock& clock,
                     net::Vf& in, net::Vf& out, ChoirConfig config, Rng rng)
    : queue_(queue),
      clock_(clock),
      in_dev_("choir-in." + std::to_string(config.replayer_id), in),
      out_dev_("choir-out." + std::to_string(config.replayer_id), out),
      out_vf_(out),
      config_(config),
      rng_(rng.split(0x4d42)),
      loop_(queue, in, config.poll, rng.split(0x504f4c),
            middlebox_label(config)),
      recording_(config.max_recorded_packets,
                 config.rolling_record ? Recording::Mode::kRolling
                                       : Recording::Mode::kBounded) {
  loop_.set_handler([this] { return on_poll(); });
  if (telemetry::Registry::current() != nullptr) {
    const std::string base = middlebox_label(config_) + ".";
    tm_forwarded_ = telemetry::counter(base + "forwarded");
    tm_recorded_ = telemetry::counter(base + "recorded");
    tm_control_frames_ = telemetry::counter(base + "control_frames");
    tm_forward_drops_ = telemetry::counter(base + "forward_drops");
    tm_record_overflow_ = telemetry::counter(base + "record_overflow");
    tm_tx_ring_retries_ = telemetry::counter(base + "tx_ring_retries");
    tm_replayed_packets_ = telemetry::counter(base + "replayed_packets");
    tm_replayed_bursts_ = telemetry::counter(base + "replayed_bursts");
    tm_control_duplicates_ = telemetry::counter(base + "control_duplicates");
    tm_replay_resyncs_ = telemetry::counter(base + "replay_resyncs");
    tm_recordings_truncated_ =
        telemetry::counter(base + "recordings_truncated");
    tm_group_beacons_ = telemetry::counter(base + "group_beacons");
    tm_group_prepares_ = telemetry::counter(base + "group_prepares");
    tm_group_resyncs_ = telemetry::counter(base + "group_resyncs");
    tm_group_skipped_ = telemetry::counter(base + "group_skipped_packets");
    tm_replays_aborted_ = telemetry::counter(base + "replays_aborted");
    tm_forward_latency_ = telemetry::histogram(base + "forward_latency_ns");
    tm_pacing_error_ = telemetry::histogram(base + "pacing_error_ns");
    tm_replay_slack_ = telemetry::histogram(base + "replay_slack_ns");
    tm_replay_overshoot_ = telemetry::histogram(base + "replay_overshoot_ns");
    tm_track_ = telemetry::track(middlebox_label(config_));
  }
}

void Middlebox::start() { loop_.start(); }

void Middlebox::flight(obs::FlightEvent e, bool sampled) {
  if (flight_ == nullptr) return;
  e.t_wall = clock_.system.read(queue_.now());
  if (sampled) {
    flight_->record_sampled(e);
  } else {
    flight_->record(e);
  }
}

void Middlebox::start_record() {
  if (!recording_active_) {
    record_started_at_ = queue_.now();
    overflow_at_record_start_ = stats_.record_overflow;
  }
  recording_active_ = true;
}

void Middlebox::stop_record() {
  if (recording_active_ && record_started_at_ >= 0) {
    if (auto* tracer = telemetry::tracer()) {
      tracer->span("record", record_started_at_, queue_.now(), tm_track_);
    }
    record_started_at_ = -1;
    // Truncated-recording finalization: the recording stays usable for
    // replay even when the RAM bound cut it short; the truncation itself
    // is surfaced, not hidden inside the overflow packet count.
    if (stats_.record_overflow > overflow_at_record_start_) {
      ++stats_.recordings_truncated;
      tm_recordings_truncated_.add();
      if (auto* tracer = telemetry::tracer()) {
        tracer->instant("recording-truncated", queue_.now(), tm_track_);
      }
    }
  }
  recording_active_ = false;
}

void Middlebox::clear_recording() {
  CHOIR_EXPECT(!replay_armed_, "cannot clear a recording mid-replay");
  recording_.clear();
  next_tag_seq_ = 0;
}

bool Middlebox::on_poll() {
  pktio::Mbuf* burst[pktio::kMaxBurst];
  const auto want = std::min<std::uint16_t>(config_.rx_burst_size,
                                            pktio::kMaxBurst);
  const std::uint16_t n = in_dev_.rx_burst(burst, want);
  if (n == 0) return false;

  // Peel control frames out of the stream; everything else forwards.
  std::uint16_t fwd = 0;
  for (std::uint16_t i = 0; i < n; ++i) {
    if (const auto msg = decode_control(burst[i]->frame)) {
      ++stats_.control_frames;
      tm_control_frames_.add();
      if (auto* tracer = telemetry::tracer()) {
        tracer->instant("control-frame", queue_.now(), tm_track_);
      }
      handle_control(*msg);
      pktio::Mempool::release(burst[i]);
      continue;
    }
    burst[fwd++] = burst[i];
  }
  if (fwd == 0) return true;

  // While recording, stamp the 16-byte evaluation trailer on every
  // forwarded packet (Section 6's setup).
  if (recording_active_) {
    for (std::uint16_t i = 0; i < fwd; ++i) {
      trace::stamp(burst[i]->frame,
                   trace::Tag{config_.replayer_id, config_.stream_id,
                              next_tag_seq_++});
    }
  }

  // Transmit first, then record the burst exactly as transmitted, with
  // the transmit-time TSC (Section 4: record after transmission, no copy).
  const std::uint64_t tsc = clock_.tsc.read(queue_.now());
  const std::uint16_t sent = out_dev_.tx_burst(burst, fwd);
  stats_.forwarded += sent;
  // A forwarder with a full tx ring drops on the floor (it cannot stall
  // its rx side); the recording only ever holds what was transmitted.
  stats_.forward_drops += fwd - sent;
  if (sent > 0) tm_forwarded_.add(sent);
  if (sent < fwd) tm_forward_drops_.add(fwd - sent);
  if (tm_forward_latency_) {
    // Store-and-forward latency: NIC admission timestamp to transmit.
    for (std::uint16_t i = 0; i < sent; ++i) {
      tm_forward_latency_.record(queue_.now() - burst[i]->rx_timestamp);
    }
  }
  for (std::uint16_t i = sent; i < fwd; ++i) {
    pktio::Mempool::release(burst[i]);
  }

  if (recording_active_ && sent > 0) {
    if (recording_.add_burst(tsc, burst, sent)) {
      stats_.recorded += sent;
      tm_recorded_.add(sent);
    } else {
      stats_.record_overflow += sent;
      tm_record_overflow_.add(sent);
    }
    // Breakpoint check after the burst is safely recorded: the matching
    // frame is the last thing in the (rolling) buffer.
    if (breakpoint_) {
      for (std::uint16_t i = 0; i < sent; ++i) {
        if (breakpoint_(burst[i]->frame)) {
          ++stats_.breakpoint_hits;
          recording_active_ = false;
          breakpoint_ = nullptr;
          break;
        }
      }
    }
  }
  return true;
}

void Middlebox::handle_control(const ControlMessage& msg) {
  if (msg.sequenced) {
    // Redundant retransmissions of an executed command are dropped, and
    // a late straggler cannot undo a newer command. Unsequenced frames
    // bypass this entirely.
    if (msg.seq <= last_ctl_seq_) {
      ++stats_.control_duplicates;
      tm_control_duplicates_.add();
      return;
    }
    last_ctl_seq_ = msg.seq;
  }
  if (msg.op != Op::kBeacon) {
    // Adopt the command's trace context: the member's reaction span is
    // a child of the coordinator's command span, and subsequent beacons
    // carry it back so both directions link in the merged timeline.
    const obs::TraceContext ctx = obs::unpack_trace(msg.trace);
    std::uint32_t child = 0;
    if (ctx.trace != 0) {
      child = spans_.next();
      group_ctx_ = obs::TraceContext{ctx.trace, child};
    }
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kControlRecv;
    e.code = static_cast<std::uint16_t>(msg.op);
    e.a = static_cast<std::int64_t>(msg.arg);
    e.b = msg.seq;
    e.trace = ctx.trace;
    e.parent = ctx.span;
    e.span = child;
    e.round = msg.op == Op::kGroupPrepare ? static_cast<int>(msg.arg)
                                          : obs::round_of_trace(ctx.trace);
    flight(e);
  }
  switch (msg.op) {
    case Op::kStartRecord:
      start_record();
      break;
    case Op::kStopRecord:
      stop_record();
      break;
    case Op::kStartReplay:
      schedule_replay(static_cast<Ns>(msg.arg));
      break;
    case Op::kClearRecording:
      clear_recording();
      break;
    case Op::kPing:
      break;
    case Op::kGroupPrepare:
      group_prepare(static_cast<std::int64_t>(msg.arg));
      break;
    case Op::kGroupResync:
      group_resync(static_cast<Ns>(msg.arg));
      break;
    case Op::kBeacon:
      break;  // coordinator-bound; a member ignores stray beacons
  }
}

void Middlebox::enable_group(pktio::Mempool& pool,
                             const GroupMemberOptions& options) {
  CHOIR_EXPECT(!group_enabled_, "group-member mode already enabled");
  CHOIR_EXPECT(options.beacon_interval > 0, "beacon interval must be > 0");
  group_enabled_ = true;
  group_ = options;
  beacon_pool_ = &pool;
  queue_.schedule_in(group_.beacon_interval, sim::Component::kMiddlebox,
                     [this] { send_beacon(); });
}

Ns Middlebox::replay_progress() const {
  if (recording_.empty()) return 0;
  const std::uint64_t first = recording_.first_tsc();
  if (replay_armed_) {
    const std::uint64_t due = recording_.bursts()[replay_cursor_].tsc;
    return clock_.tsc.ticks_to_ns(due - first);
  }
  if (done_round_ >= 0 && done_round_ == prepared_round_) {
    return clock_.tsc.ticks_to_ns(recording_.last_tsc() - first);
  }
  return 0;
}

void Middlebox::send_beacon() {
  if (!group_enabled_) return;
  BeaconPhase phase = BeaconPhase::kIdle;
  if (replay_armed_) {
    phase = BeaconPhase::kReplaying;
  } else if (done_round_ >= 0 && done_round_ == prepared_round_) {
    phase = BeaconPhase::kDone;
  } else if (prepared_round_ >= 0) {
    phase = BeaconPhase::kReady;
  }
  const auto round = static_cast<std::uint16_t>(
      prepared_round_ >= 0 ? (prepared_round_ & 0xfff) : 0);
  ControlMessage msg;
  msg.op = Op::kBeacon;
  msg.arg = pack_beacon(static_cast<std::uint16_t>(config_.replayer_id),
                        phase, round, replay_progress());
  msg.trace = obs::pack_trace(group_ctx_);
  // Edge-triggered beacon logging (see GroupCoordinator::handle_beacon):
  // only phase/round edges reach the ring.
  const auto edge = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(phase) << 12) | round);
  if (edge != last_beacon_logged_) {
    last_beacon_logged_ = edge;
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kBeaconSend;
    e.code = static_cast<std::uint16_t>(Op::kBeacon);
    e.a = replay_progress();
    e.b = static_cast<std::uint64_t>(phase);
    e.round = static_cast<int>(prepared_round_);
    e.trace = group_ctx_.trace;
    e.span = group_ctx_.span;
    flight(e, /*sampled=*/true);
  }
  pktio::Mbuf* m = beacon_pool_->alloc();
  if (m == nullptr) {
    ++stats_.group_beacon_failures;
  } else {
    encode_control(m->frame, group_.beacon_flow, msg);
    pktio::Mbuf* burst[1] = {m};
    if (out_dev_.tx_burst(burst, 1) == 1) {
      ++stats_.group_beacons_sent;
      tm_group_beacons_.add();
    } else {
      pktio::Mempool::release(m);
      ++stats_.group_beacon_failures;
    }
  }
  queue_.schedule_in(group_.beacon_interval, sim::Component::kMiddlebox,
                     [this] { send_beacon(); });
}

void Middlebox::abort_replay() {
  if (!replay_armed_) return;
  ++replay_epoch_;  // in-flight pace/emit events see a stale epoch and bail
  replay_armed_ = false;
  replay_cursor_ = 0;
  ++stats_.replays_aborted;
  tm_replays_aborted_.add();
  if (auto* tracer = telemetry::tracer()) {
    tracer->instant("replay-aborted", queue_.now(), tm_track_);
  }
  {
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kReplayAbort;
    e.round = static_cast<int>(prepared_round_);
    e.trace = group_ctx_.trace;
    e.parent = group_ctx_.span;
    flight(e);
  }
}

void Middlebox::group_prepare(std::int64_t round) {
  // A prepare fences the round: any stale replay is cut so the member
  // reports READY from a clean state.
  abort_replay();
  prepared_round_ = round;
  done_round_ = -1;
  ++stats_.group_prepares;
  tm_group_prepares_.add();
  if (auto* tracer = telemetry::tracer()) {
    tracer->instant("group-prepare", queue_.now(), tm_track_);
  }
}

void Middlebox::group_resync(Ns target_offset) {
  if (!replay_armed_ || recording_.empty()) return;
  // Fast-forward to the group's replay horizon: skip every burst whose
  // recorded offset is below the target, then re-anchor the pacing so
  // the first surviving burst is due now and the rest keep their
  // recorded spacing.
  const std::uint64_t first = recording_.first_tsc();
  std::uint64_t skipped = 0;
  while (replay_cursor_ < recording_.burst_count() &&
         clock_.tsc.ticks_to_ns(recording_.bursts()[replay_cursor_].tsc -
                                first) < target_offset) {
    skipped += recording_.bursts()[replay_cursor_].pkts.size();
    ++replay_cursor_;
  }
  ++replay_epoch_;
  ++stats_.group_resyncs;
  tm_group_resyncs_.add();
  stats_.group_skipped_packets += skipped;
  if (skipped > 0) tm_group_skipped_.add(skipped);
  if (auto* tracer = telemetry::tracer()) {
    char args[64];
    std::snprintf(args, sizeof(args), "{\"skipped\":%llu}",
                  static_cast<unsigned long long>(skipped));
    tracer->instant("group-resync", queue_.now(), tm_track_, args);
  }
  {
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kResyncApply;
    e.a = target_offset;
    e.b = skipped;
    e.round = static_cast<int>(prepared_round_);
    e.trace = group_ctx_.trace;
    e.parent = group_ctx_.span;
    flight(e);
  }
  if (replay_cursor_ >= recording_.burst_count()) {
    // The horizon is past the end of the shard: this replay is over.
    replay_armed_ = false;
    replay_cursor_ = 0;
    if (group_enabled_) done_round_ = prepared_round_;
    return;
  }
  replay_tsc_delta_ =
      clock_.tsc.read(queue_.now()) - recording_.bursts()[replay_cursor_].tsc;
  slip_until_ = 0;
  loop_free_at_ = queue_.now();
  replay_step();
}

void Middlebox::schedule_replay(Ns wall_start) {
  if (recording_.empty() || replay_armed_) return;
  const Ns now = queue_.now();
  // Wall-clock target -> local TSC target, via this node's believed
  // clocks. PTP error and TSC calibration error land here, exactly as in
  // the real system.
  const Ns wall_now = clock_.system.read(now);
  const std::uint64_t tsc_now = clock_.tsc.read(now);
  const Ns lead = std::max<Ns>(0, wall_start - wall_now);
  const std::uint64_t tsc_start = tsc_now + clock_.tsc.ns_to_ticks(lead);
  replay_tsc_delta_ = tsc_start - recording_.first_tsc();
  begin_replay(clock_.tsc.time_of_ticks(tsc_start), replay_tsc_delta_);
}

void Middlebox::begin_replay(Ns true_start, std::uint64_t tsc_delta) {
  replay_armed_ = true;
  replay_cursor_ = 0;
  replay_tsc_delta_ = tsc_delta;
  loop_free_at_ = std::max(queue_.now(), true_start);
  slip_until_ = 0;
  ++stats_.replays_started;
  replay_started_at_ = queue_.now();
  {
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kReplayStart;
    e.a = true_start;
    e.round = static_cast<int>(prepared_round_);
    e.trace = group_ctx_.trace;
    e.parent = group_ctx_.span;
    flight(e);
  }
  replay_step();
}

void Middlebox::replay_step() {
  telemetry::ProfileSpan prof("replay.pace");
  const RecordedBurst& burst = recording_.bursts()[replay_cursor_];
  const std::uint64_t target_tsc = burst.tsc + replay_tsc_delta_;
  Ns t = clock_.tsc.time_of_ticks(target_tsc);

  // Resynchronize after a stall: when the loop fell far enough behind
  // (NIC stall window, long ring-full spin), shift the pacing anchor to
  // now so the remaining bursts keep their recorded spacing instead of
  // blasting out back-to-back.
  const Ns behind = queue_.now() - t;
  if (config_.replay_resync_threshold_ns > 0 &&
      behind > config_.replay_resync_threshold_ns) {
    replay_tsc_delta_ += clock_.tsc.ns_to_ticks(behind);
    t += behind;
    ++stats_.replay_resyncs;
    tm_replay_resyncs_.add();
    if (auto* tracer = telemetry::tracer()) {
      tracer->instant("replay-resync", queue_.now(), tm_track_);
    }
  }
  // Everything added below (check-loop granularity, slips, a busy
  // previous burst) is pacing error: actual TX minus this scheduled TX.
  replay_target_ns_ = t;

  // Scheduling headroom: positive slack means the loop reached this
  // burst before its target (healthy pacing); overshoot means the loop
  // was already past the target when it got here, so the burst leaves
  // late no matter what the pacer does.
  const Ns headroom = t - queue_.now();
  if (headroom >= 0) {
    tm_replay_slack_.record(headroom);
  } else {
    tm_replay_overshoot_.record(-headroom);
  }

  // The transmit loop spins on a TSC read: the burst goes out within one
  // check-loop iteration after its target.
  t += static_cast<Ns>(rng_.uniform() * config_.loop_check_ns);

  // Replay-loop preemption between the previous burst and this one.
  if (config_.slip_rate_hz > 0.0 && t > loop_free_at_) {
    const double window_s = to_seconds(t - loop_free_at_);
    const double p_slip = 1.0 - std::exp(-config_.slip_rate_hz * window_s);
    if (rng_.chance(p_slip)) {
      const double stall =
          rng_.lognormal(config_.slip_mu_log_ns, config_.slip_sigma_log);
      slip_until_ = t + static_cast<Ns>(stall);
    }
  }
  t = std::max({t, loop_free_at_, slip_until_, queue_.now()});

  const std::uint64_t epoch = replay_epoch_;
  queue_.schedule_at(t, sim::Component::kMiddlebox, [this, epoch] {
    if (epoch != replay_epoch_) return;  // prepare/resync superseded us
    emit_burst_from(0);
  });
}

void Middlebox::emit_burst_from(std::size_t offset) {
  telemetry::ProfileSpan prof("replay.emit");
  const RecordedBurst& b = recording_.bursts()[replay_cursor_];
  if (offset == 0) {
    const Ns pacing_error = queue_.now() - replay_target_ns_;
    tm_pacing_error_.record(pacing_error);
    if (auto* tracer = telemetry::tracer()) {
      char args[96];
      std::snprintf(args, sizeof(args),
                    "{\"pacing_error_ns\":%lld,\"packets\":%zu}",
                    static_cast<long long>(pacing_error), b.pkts.size());
      tracer->instant("replay-burst", queue_.now(), tm_track_, args);
    }
  }
  pktio::Mbuf* pkts[pktio::kMaxBurst];
  while (offset < b.pkts.size()) {
    const auto chunk = static_cast<std::uint16_t>(
        std::min<std::size_t>(pktio::kMaxBurst, b.pkts.size() - offset));
    for (std::uint16_t i = 0; i < chunk; ++i) {
      pkts[i] = b.pkts[offset + i];
      pktio::Mempool::retain(pkts[i]);  // the NIC releases after the wire
    }
    const std::uint16_t sent = out_dev_.tx_burst(pkts, chunk);
    stats_.replayed_packets += sent;
    if (sent > 0) tm_replayed_packets_.add(sent);
    for (std::uint16_t i = sent; i < chunk; ++i) {
      pktio::Mempool::release(pkts[i]);
    }
    offset += sent;
    if (sent < chunk) {
      // Descriptor ring full: the transmit loop spins until the NIC
      // frees slots, then retries the remainder — nothing is dropped
      // (rte_eth_tx_burst semantics).
      ++stats_.tx_ring_retries;
      tm_tx_ring_retries_.add();
      const std::uint64_t epoch = replay_epoch_;
      const auto retry = [this, offset, epoch] {
        if (epoch != replay_epoch_) return;  // prepare/resync superseded us
        emit_burst_from(offset);
      };
      queue_.schedule_in(200, sim::Component::kMiddlebox, retry);
      return;
    }
  }
  finish_burst();
}

void Middlebox::finish_burst() {
  ++stats_.replayed_bursts;
  tm_replayed_bursts_.add();
  loop_free_at_ = queue_.now() + static_cast<Ns>(config_.loop_check_ns);
  ++replay_cursor_;
  if (replay_cursor_ < recording_.burst_count()) {
    replay_step();
  } else {
    if (auto* tracer = telemetry::tracer()) {
      char args[64];
      std::snprintf(args, sizeof(args), "{\"bursts\":%llu}",
                    static_cast<unsigned long long>(stats_.replayed_bursts));
      tracer->span("replay", replay_started_at_, queue_.now(), tm_track_,
                   args);
    }
    replay_armed_ = false;
    replay_cursor_ = 0;
    if (group_enabled_) done_round_ = prepared_round_;
    obs::FlightEvent e{};
    e.kind = obs::EventKind::kReplayDone;
    e.b = stats_.replayed_bursts;
    e.round = static_cast<int>(prepared_round_);
    e.trace = group_ctx_.trace;
    e.parent = group_ctx_.span;
    flight(e);
  }
}

}  // namespace choir::app
