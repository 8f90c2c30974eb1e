#include "net/noise.hpp"

#include <algorithm>

namespace choir::net {

void NoiseSource::run(Ns at, Ns until) {
  stop_at_ = until;
  queue_.schedule_at(at, sim::Component::kNoise, [this] { emit_burst(); });
  // Rate random walk, independent of the emission cadence.
  const Ns first_update = at + config_.rate_update_interval;
  if (first_update < until) {
    queue_.schedule_at(first_update, sim::Component::kNoise,
                       [this] { update_rate(); });
  }
}

void NoiseSource::update_rate() {
  const double span = config_.max_rate - config_.min_rate;
  rate_ += rng_.normal(0.0, span * config_.rate_step_fraction);
  rate_ = std::clamp(rate_, config_.min_rate, config_.max_rate);
  const Ns next = queue_.now() + config_.rate_update_interval;
  if (next < stop_at_) {
    queue_.schedule_at(next, sim::Component::kNoise,
                       [this] { update_rate(); });
  }
}

void NoiseSource::emit_burst() {
  if (queue_.now() >= stop_at_) return;

  pktio::Mbuf* burst[256];
  const std::uint16_t want = std::min<std::uint16_t>(config_.burst, 256);
  std::uint16_t have = 0;
  for (; have < want; ++have) {
    pktio::Mbuf* m = pool_.alloc();
    if (m == nullptr) {
      ++alloc_failures_;
      break;
    }
    m->frame.wire_len = config_.frame_bytes;
    m->frame.payload_token = 0x4e4f495345ULL ^ next_seq_++;  // "NOISE"
    pktio::write_eth_ipv4_udp(m->frame, flow_);
    burst[have] = m;
  }
  if (have > 0) {
    // The frames beyond the free descriptors stay ours: release them.
    const std::uint16_t sent = vf_.backend_tx(burst, have);
    for (std::uint16_t i = sent; i < have; ++i) {
      pktio::Mempool::release(burst[i]);
    }
    frames_ += sent;
  }

  // Next emission: time to serialize one burst at the current offered
  // rate, with kernel-stack burstiness on top.
  const double burst_bits =
      static_cast<double>(config_.burst) * config_.frame_bytes * 8.0;
  const double gap_ns = burst_bits / rate_ * kNsPerSec;
  const double jitter = rng_.lognormal(0.0, config_.burst_jitter_sigma);
  const Ns next = queue_.now() + std::max<Ns>(1, static_cast<Ns>(gap_ns * jitter));
  if (next < stop_at_) {
    queue_.schedule_at(next, sim::Component::kNoise, [this] { emit_burst(); });
  }
}

}  // namespace choir::net
