// Choir application configuration.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "net/poll_loop.hpp"

namespace choir::app {

struct ChoirConfig {
  std::uint16_t replayer_id = 0;
  std::uint32_t stream_id = 0;

  /// Forwarding loop model.
  net::PollLoopConfig poll{};

  /// Frames drained per loop iteration ("up to 64-packet bursts", §5).
  /// With ~800 ns iterations this caps the sustainable forwarding rate
  /// at rx_burst_size / interval — the reason Choir uses large bursts.
  std::uint16_t rx_burst_size = 64;

  /// Replay loop: granularity of the TSC check spin (one rdtsc+compare
  /// iteration). A burst transmits up to this much after its target.
  double loop_check_ns = 25.0;

  /// Replay-loop preemption: rate and lognormal duration of stalls that
  /// freeze the transmit loop (OS scheduling on bare metal, vCPU
  /// preemption in a VM). Zero rate disables.
  double slip_rate_hz = 0.0;
  double slip_mu_log_ns = 0.0;
  double slip_sigma_log = 0.0;

  /// Resynchronization after a stall: if a replay burst comes due more
  /// than this far in the past (the transmit loop was starved by a NIC
  /// stall or a long ring-full spin), the pacing anchor is shifted
  /// forward so the remaining bursts keep their recorded spacing instead
  /// of blasting out back-to-back. 0 disables (the default — the
  /// original catch-up behaviour, which seeded experiments rely on).
  Ns replay_resync_threshold_ns = 0;

  /// RAM bound on the replay buffer, in packets ("the primary restriction
  /// is RAM, which only controls how large the replay buffer is").
  std::size_t max_recorded_packets = 4'000'000;

  /// Rolling recording (Section 4's future-work mode): keep the most
  /// recent max_recorded_packets instead of stopping at the bound — the
  /// basis for breakpoint/backtrace debugging.
  bool rolling_record = false;
};

}  // namespace choir::app
