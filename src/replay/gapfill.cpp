#include "replay/gapfill.hpp"

#include <algorithm>

namespace choir::replay {

GapFillReplayer::GapFillReplayer(sim::EventQueue& queue,
                                 sim::NodeClock& clock, net::Vf& out,
                                 const app::Recording& recording,
                                 Config config)
    : queue_(queue), clock_(clock), out_dev_("gapfill-out", out),
      out_vf_(out), recording_(recording), config_(config),
      filler_pool_(config.filler_pool) {}

void GapFillReplayer::schedule_replay(Ns wall_start) {
  if (recording_.empty() || active_) return;
  const Ns now = queue_.now();
  const Ns wall_now = clock_.system.read(now);
  const Ns lead = std::max<Ns>(0, wall_start - wall_now);
  true_start_ = now + lead;
  first_tsc_ = recording_.first_tsc();
  burst_cursor_ = 0;
  pkt_cursor_ = 0;
  wire_cursor_ = true_start_;
  active_ = true;
  const Ns kickoff = std::max(now, true_start_ - config_.lookahead);
  queue_.schedule_at(kickoff, sim::Component::kReplayEngine,
                     [this] { pump(); });
}

Ns GapFillReplayer::emit_filler(Ns gap_ns) {
  Ns remaining = gap_ns;
  for (;;) {
    const Ns min_time =
        serialization_ns(config_.min_filler_bytes, config_.line_rate);
    if (remaining < min_time) return remaining;
    // Size one filler to cover as much of the gap as a frame can.
    const double bytes_exact =
        static_cast<double>(remaining) * config_.line_rate /
        (8.0 * kNsPerSec);
    const std::uint32_t bytes = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(bytes_exact), config_.min_filler_bytes,
        config_.max_filler_bytes);
    pktio::Mbuf* f = filler_pool_.alloc();
    if (f == nullptr) return remaining;  // cannot keep the queue full
    f->frame.wire_len = bytes;
    f->frame.invalid_fcs = true;
    f->frame.payload_token = 0x46494c4cULL;  // "FILL"
    pktio::Mbuf* one[1] = {f};
    if (out_vf_.backend_tx(one, 1) != 1) {
      pktio::Mempool::release(f);
      return remaining;
    }
    ++filler_sent_;
    filler_bytes_ += bytes;
    remaining -= serialization_ns(bytes, config_.line_rate);
  }
}

bool GapFillReplayer::emit_real(pktio::Mbuf* pkt) {
  pktio::Mempool::retain(pkt);
  pktio::Mbuf* one[1] = {pkt};
  if (out_dev_.tx_burst(one, 1) != 1) {
    pktio::Mempool::release(pkt);
    return false;
  }
  ++real_sent_;
  return true;
}

void GapFillReplayer::pump() {
  const Ns horizon = queue_.now() + config_.lookahead;
  while (active_ && wire_cursor_ < horizon) {
    if (burst_cursor_ >= recording_.burst_count()) {
      active_ = false;
      return;
    }
    const app::RecordedBurst& burst = recording_.bursts()[burst_cursor_];
    if (pkt_cursor_ == 0) {
      // Fill the inter-burst gap so serialization lands the burst head
      // exactly on its recorded offset.
      const Ns target =
          true_start_ + clock_.tsc.ticks_to_ns(burst.tsc - first_tsc_);
      if (target > wire_cursor_) {
        const Ns residual = emit_filler(target - wire_cursor_);
        wire_cursor_ = target - residual;
        if (residual >= serialization_ns(config_.min_filler_bytes,
                                         config_.line_rate)) {
          break;  // filler pool drained; retry after the wire advances
        }
      }
    }
    // Packets within a burst go back-to-back, no filler.
    while (pkt_cursor_ < burst.pkts.size()) {
      pktio::Mbuf* pkt = burst.pkts[pkt_cursor_];
      if (!emit_real(pkt)) {
        // Descriptor ring full (a competing tenant is squeezing us):
        // block here and retry — real packets are never sacrificed.
        queue_.schedule_in(500, sim::Component::kReplayEngine,
                           [this] { pump(); });
        return;
      }
      wire_cursor_ += serialization_ns(pkt->frame.wire_len, config_.line_rate);
      ++pkt_cursor_;
    }
    pkt_cursor_ = 0;
    ++burst_cursor_;
  }
  if (active_) {
    const Ns next = std::max(queue_.now() + 1, wire_cursor_ - config_.lookahead / 2);
    queue_.schedule_at(next, sim::Component::kReplayEngine,
                       [this] { pump(); });
  }
}

}  // namespace choir::replay
