#include "gen/generator.hpp"

#include <algorithm>

namespace choir::gen {

pktio::Mbuf* make_frame(pktio::Mempool& pool, const StreamConfig& config,
                        std::uint32_t frame_bytes, std::uint64_t sequence) {
  pktio::Mbuf* m = pool.alloc();
  if (m == nullptr) return nullptr;
  m->frame.wire_len = frame_bytes;
  m->frame.payload_token =
      (static_cast<std::uint64_t>(config.stream_id) << 40) ^ sequence;
  pktio::write_eth_ipv4_udp(m->frame, config.flow);
  return m;
}

// --- PoissonGenerator ---------------------------------------------------

PoissonGenerator::PoissonGenerator(sim::EventQueue& queue, net::Vf& vf,
                                   pktio::Mempool& pool, StreamConfig config,
                                   Rng rng)
    : queue_(queue), vf_(vf), pool_(pool), config_(config),
      rng_(rng.split(0x504f)),
      mean_gap_ns_(mean_iat_ns(config.frame_bytes, config.rate)) {}

void PoissonGenerator::start() {
  if (config_.count == 0) return;
  emit_next(config_.start);
}

void PoissonGenerator::emit_next(Ns at) {
  const Ns when = std::max(queue_.now(), at);
  queue_.schedule_at(when, sim::Component::kGenerator, [this, at] {
    pktio::Mbuf* m = make_frame(pool_, config_, config_.frame_bytes, emitted_);
    if (m != nullptr) {
      vf_.tx_paced(m, at);
    } else {
      ++alloc_failures_;
    }
    if (++emitted_ < config_.count) {
      emit_next(at + std::max<Ns>(1, static_cast<Ns>(
                                         rng_.exponential(mean_gap_ns_))));
    }
  });
}

// --- ImixGenerator ------------------------------------------------------

ImixGenerator::ImixGenerator(sim::EventQueue& queue, net::Vf& vf,
                             pktio::Mempool& pool, StreamConfig config,
                             Rng rng)
    : queue_(queue), vf_(vf), pool_(pool), config_(config),
      rng_(rng.split(0x494d)) {}

std::uint32_t ImixGenerator::pick_size() {
  // Classic 7:4:1 IMIX; 64-byte frames padded to carry our 58-byte
  // header+trailer minimum.
  const double r = rng_.uniform() * 12.0;
  if (r < 7.0) return 64;
  if (r < 11.0) return 576;
  return 1500;
}

void ImixGenerator::start() {
  if (config_.count == 0) return;
  emit_next(config_.start);
}

void ImixGenerator::emit_next(Ns at) {
  const Ns when = std::max(queue_.now(), at);
  queue_.schedule_at(when, sim::Component::kGenerator, [this, at] {
    const std::uint32_t size = pick_size();
    pktio::Mbuf* m = make_frame(pool_, config_, size, emitted_);
    if (m != nullptr) {
      vf_.tx_paced(m, at);
    } else {
      ++alloc_failures_;
    }
    ++emitted_;
    if (emitted_ < config_.count) {
      // Keep the configured bit rate: the gap budget is this frame's
      // share of the aggregate rate.
      const double gap = static_cast<double>(size) * 8.0 * kNsPerSec /
                         config_.rate;
      emit_next(at + std::max<Ns>(1, static_cast<Ns>(gap)));
    }
  });
}

}  // namespace choir::gen
