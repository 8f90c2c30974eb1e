// Constant-bit-rate traffic generator, one flow or many.
//
// MultiFlowGenerator emits one paced aggregate stream: frame n is offered
// to the wire at start + n * gap, where gap is the exact per-frame
// serialization budget at the configured rate, and its frames
// round-robin over N distinct 5-tuples. With flows = 1 it is the plain
// CBR stream every paper experiment replays; with more it models a
// generator host sourcing many concurrent flows through one port — the
// workload the flow subsystem classifies back apart on the recorder
// side.
//
// Determinism: frame n goes to flow (n % flows) at wire time
// start + n * gap, so flow membership, per-flow counts, and per-flow
// arrival order are all pure functions of the config.
#pragma once

#include <cstdint>

#include "gen/generator.hpp"

namespace choir::gen {

struct MultiFlowConfig {
  /// Template stream: rate/frame size/count/start/burst plus the base
  /// flow address. `count` is the AGGREGATE frame budget across flows.
  StreamConfig base;
  /// Number of distinct flows to synthesize (>= 1). Flow f perturbs the
  /// base address: src_port advances through 16384 ports per source IP,
  /// then src_ip advances, so up to ~70M distinct keys are reachable
  /// without colliding with the base dst tuple.
  std::uint32_t flows = 1;
};

/// The 5-tuple synthesized for flow `f` of `config` — shared with tests
/// and experiment evaluation so expectations never drift from emission.
pktio::FlowAddress flow_address_of(const MultiFlowConfig& config,
                                   std::uint32_t f);

class MultiFlowGenerator {
 public:
  MultiFlowGenerator(sim::EventQueue& queue, net::Vf& vf,
                     pktio::Mempool& pool, MultiFlowConfig config);

  void start();

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t alloc_failures() const { return alloc_failures_; }
  bool done() const { return emitted_ >= config_.base.count; }
  std::uint32_t flows() const { return config_.flows; }

  /// Exact spacing between consecutive frames of the aggregate.
  double gap_ns() const { return gap_ns_; }

 private:
  void emit_chunk();
  Ns frame_time(std::uint64_t n) const {
    return config_.base.start +
           static_cast<Ns>(gap_ns_ * static_cast<double>(n));
  }

  sim::EventQueue& queue_;
  net::Vf& vf_;
  pktio::Mempool& pool_;
  MultiFlowConfig config_;
  double gap_ns_;
  std::uint64_t emitted_ = 0;
  std::uint64_t alloc_failures_ = 0;
};

}  // namespace choir::gen
