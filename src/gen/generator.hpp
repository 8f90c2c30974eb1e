// Traffic generators.
//
// The Pktgen-DPDK stand-in used by every paper experiment is
// MultiFlowGenerator (gen/multi_flow.hpp): fixed-size frames at a
// constant bit rate, emitted through a VF's paced-transmit path (Pktgen's
// rate control); with one flow it is a plain CBR stream. This header
// holds its per-stream config and the frame helper.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/nic.hpp"
#include "pktio/headers.hpp"
#include "pktio/mbuf.hpp"
#include "sim/event_queue.hpp"

namespace choir::gen {

struct StreamConfig {
  pktio::FlowAddress flow;
  std::uint32_t stream_id = 0;      ///< written into the payload token
  std::uint32_t frame_bytes = 1400; ///< the paper's evaluation frame size
  BitsPerSec rate = gbps(40);
  std::uint64_t count = 0;          ///< frames to emit
  Ns start = 0;                     ///< wire time of the first frame
  std::uint16_t burst = 32;         ///< frames prepared per event
};

/// Shared helper: allocate and address one frame. Returns nullptr on pool
/// exhaustion.
pktio::Mbuf* make_frame(pktio::Mempool& pool, const StreamConfig& config,
                        std::uint32_t frame_bytes, std::uint64_t sequence);

}  // namespace choir::gen
