// Invalid-packet gap-filling replayer (the MoonGen / GapReplay
// technique, Section 9 of the paper).
//
// Instead of timing transmissions in software, the NIC queue is kept
// permanently full: real packets are interleaved with bad-FCS filler
// frames sized so that serialization alone reproduces the recorded
// gaps. On a dedicated, uncontended NIC this is more precise than any
// software pacing. Its failure mode is exactly the paper's argument:
// it *requires* the full line rate — on a shared NIC the filler stream
// competes with other tenants, queues overflow, and real packets drop.
#pragma once

#include <cstdint>

#include "choir/recording.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/nic.hpp"
#include "pktio/ethdev.hpp"
#include "replay/replayer.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"

namespace choir::replay {

class GapFillReplayer : public Replayer {
 public:
  struct Config {
    BitsPerSec line_rate = gbps(100);   ///< rate fillers are sized for
    std::uint32_t min_filler_bytes = 64;
    std::uint32_t max_filler_bytes = 1500;
    /// How far ahead of the wire the submit loop keeps the queue topped
    /// up. Larger = more standing queue, like MoonGen's full tx ring.
    Ns lookahead = microseconds(40);
    std::size_t filler_pool = 4096;
  };

  GapFillReplayer(sim::EventQueue& queue, sim::NodeClock& clock, net::Vf& out,
                  const app::Recording& recording, Config config);

  void schedule_replay(Ns wall_start) override;

  bool active() const { return active_; }
  std::uint64_t real_packets_sent() const { return real_sent_; }
  std::uint64_t filler_frames_sent() const { return filler_sent_; }
  std::uint64_t filler_bytes_sent() const { return filler_bytes_; }

 private:
  void pump();
  /// Emit filler frames covering `gap_ns` of wire time; returns the
  /// residual gap too small to fill.
  Ns emit_filler(Ns gap_ns);
  bool emit_real(pktio::Mbuf* pkt);

  sim::EventQueue& queue_;
  sim::NodeClock& clock_;
  pktio::EthDev out_dev_;
  net::Vf& out_vf_;
  const app::Recording& recording_;
  Config config_;
  pktio::Mempool filler_pool_;

  bool active_ = false;
  std::size_t burst_cursor_ = 0;
  std::size_t pkt_cursor_ = 0;
  Ns wire_cursor_ = 0;   ///< wire time covered by submissions so far
  Ns true_start_ = 0;
  std::uint64_t first_tsc_ = 0;
  std::uint64_t real_sent_ = 0;
  std::uint64_t filler_sent_ = 0;
  std::uint64_t filler_bytes_ = 0;
};

}  // namespace choir::replay
