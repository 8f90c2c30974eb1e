#include "gen/multi_flow.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace choir::gen {

namespace {
// Ports per synthetic source IP before rolling to the next IP. Keeps
// src_port well inside the ephemeral range even for 100k+ flows.
constexpr std::uint32_t kPortsPerIp = 16384;
}  // namespace

pktio::FlowAddress flow_address_of(const MultiFlowConfig& config,
                                   std::uint32_t f) {
  pktio::FlowAddress address = config.base.flow;
  address.src_ip += f / kPortsPerIp;
  address.src_port =
      static_cast<std::uint16_t>(address.src_port + f % kPortsPerIp);
  return address;
}

MultiFlowGenerator::MultiFlowGenerator(sim::EventQueue& queue, net::Vf& vf,
                                       pktio::Mempool& pool,
                                       MultiFlowConfig config)
    : queue_(queue), vf_(vf), pool_(pool), config_(config),
      gap_ns_(mean_iat_ns(config.base.frame_bytes, config.base.rate)) {
  CHOIR_EXPECT(config_.flows >= 1, "MultiFlowGenerator needs >= 1 flow");
  CHOIR_EXPECT(config_.base.rate > 0 &&
                   config_.base.frame_bytes >= pktio::kEthIpv4UdpLen,
               "multi-flow stream misconfigured");
}

void MultiFlowGenerator::start() {
  if (config_.base.count == 0) return;
  queue_.schedule_at(
      std::max<Ns>(queue_.now(), config_.base.start - kNsPerMs),
      sim::Component::kGenerator,      [this] { emit_chunk(); });
}

void MultiFlowGenerator::emit_chunk() {
  const std::uint64_t limit =
      std::min<std::uint64_t>(config_.base.count,
                              emitted_ + config_.base.burst);
  for (; emitted_ < limit; ++emitted_) {
    // The payload token keeps the GLOBAL sequence so every frame's
    // metrics identity stays unique; only the 5-tuple fans out.
    StreamConfig per_frame = config_.base;
    per_frame.flow = flow_address_of(
        config_, static_cast<std::uint32_t>(emitted_ % config_.flows));
    pktio::Mbuf* m =
        make_frame(pool_, per_frame, per_frame.frame_bytes, emitted_);
    if (m == nullptr) {
      ++alloc_failures_;
      continue;
    }
    vf_.tx_paced(m, frame_time(emitted_));
  }
  if (emitted_ < config_.base.count) {
    const Ns next = frame_time(emitted_) - kNsPerUs;
    queue_.schedule_at(std::max(queue_.now() + 1, next),
                       sim::Component::kGenerator, [this] { emit_chunk(); });
  }
}

}  // namespace choir::gen
