#include "gen/generator.hpp"

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

}  // namespace choir::gen
