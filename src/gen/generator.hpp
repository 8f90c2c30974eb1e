// Traffic generators.
//
// The Pktgen-DPDK stand-in used by every paper experiment is
// MultiFlowGenerator (gen/multi_flow.hpp): fixed-size frames at a
// constant bit rate, emitted through a VF's paced-transmit path (Pktgen's
// rate control); with one flow it is a plain CBR stream. This header
// holds the stream config it shares with PoissonGenerator and
// ImixGenerator, which extend the library beyond the paper's workloads.
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

/// Poisson-arrival generator: same config, exponential gaps with the
/// configured rate as the mean.
class PoissonGenerator {
 public:
  PoissonGenerator(sim::EventQueue& queue, net::Vf& vf, pktio::Mempool& pool,
                   StreamConfig config, Rng rng);

  void start();
  std::uint64_t emitted() const { return emitted_; }
  /// Arrivals lost to pool exhaustion (the slot advances regardless, as
  /// a real generator's schedule would).
  std::uint64_t alloc_failures() const { return alloc_failures_; }

 private:
  void emit_next(Ns at);

  sim::EventQueue& queue_;
  net::Vf& vf_;
  pktio::Mempool& pool_;
  StreamConfig config_;
  Rng rng_;
  double mean_gap_ns_;
  std::uint64_t emitted_ = 0;
  std::uint64_t alloc_failures_ = 0;
};

/// Simple IMIX: 7:4:1 mix of 64/576/1500-byte frames at the configured
/// aggregate bit rate.
class ImixGenerator {
 public:
  ImixGenerator(sim::EventQueue& queue, net::Vf& vf, pktio::Mempool& pool,
                StreamConfig config, Rng rng);

  void start();
  std::uint64_t emitted() const { return emitted_; }
  /// Arrivals lost to pool exhaustion.
  std::uint64_t alloc_failures() const { return alloc_failures_; }

 private:
  void emit_next(Ns at);
  std::uint32_t pick_size();

  sim::EventQueue& queue_;
  net::Vf& vf_;
  pktio::Mempool& pool_;
  StreamConfig config_;
  Rng rng_;
  std::uint64_t emitted_ = 0;
  std::uint64_t alloc_failures_ = 0;
};

/// Shared helper: allocate and address one frame. Returns nullptr on pool
/// exhaustion.
pktio::Mbuf* make_frame(pktio::Mempool& pool, const StreamConfig& config,
                        std::uint32_t frame_bytes, std::uint64_t sequence);

}  // namespace choir::gen
