#include "replay/baselines.hpp"

#include <algorithm>

namespace choir::replay {

void PacedReplayerBase::schedule_replay(Ns wall_start) {
  if (recording_.empty() || active_) return;
  const Ns now = queue_.now();
  const Ns wall_now = clock_.system.read(now);
  const Ns lead = std::max<Ns>(0, wall_start - wall_now);
  true_start_ = now + lead;
  first_tsc_ = recording_.first_tsc();
  cursor_ = 0;
  active_ = true;
  last_emission_ = 0;
  ++stats_.replays;
  step();
}

void PacedReplayerBase::step() {
  const app::RecordedBurst& burst = recording_.bursts()[cursor_];
  // Ideal time: preserve the recorded TSC spacing from the start point.
  const Ns offset = clock_.tsc.ticks_to_ns(burst.tsc - first_tsc_);
  const Ns target = true_start_ + offset;
  Ns at = emission_time(target);
  at = std::max({at, last_emission_, queue_.now()});
  last_emission_ = at;
  tm_pacing_delay_.record(at - target);

  queue_.schedule_at(at, sim::Component::kReplayEngine,
                     [this] { emit_from(0); });
}

void PacedReplayerBase::emit_from(std::size_t offset) {
  const app::RecordedBurst& burst = recording_.bursts()[cursor_];
  pktio::Mbuf* pkts[pktio::kMaxBurst];
  while (offset < burst.pkts.size()) {
    const auto chunk = static_cast<std::uint16_t>(
        std::min<std::size_t>(pktio::kMaxBurst, burst.pkts.size() - offset));
    for (std::uint16_t i = 0; i < chunk; ++i) {
      pkts[i] = burst.pkts[offset + i];
      pktio::Mempool::retain(pkts[i]);
    }
    const std::uint16_t sent = out_dev_.tx_burst(pkts, chunk);
    stats_.packets += sent;
    if (sent > 0) tm_packets_.add(sent);
    for (std::uint16_t i = sent; i < chunk; ++i) {
      pktio::Mempool::release(pkts[i]);
    }
    offset += sent;
    if (sent < chunk) {
      // Full descriptor ring: retry the remainder when slots free up.
      tm_tx_retries_.add();
      queue_.schedule_in(200, sim::Component::kReplayEngine,
                         [this, offset] { emit_from(offset); });
      return;
    }
  }
  ++stats_.bursts;
  tm_bursts_.add();
  if (++cursor_ < recording_.burst_count()) {
    step();
  } else {
    active_ = false;
    cursor_ = 0;
  }
}

}  // namespace choir::replay
