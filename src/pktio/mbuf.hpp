// Message buffers and buffer pools, mirroring DPDK's rte_mbuf/rte_mempool.
//
// Zero-copy recording (Section 4 of the paper: "holding forwarded packets
// in memory after their transmission without making a copy") is expressed
// through the reference count: the recorder retains a reference while the
// forwarding path frees its own, and the buffer returns to the pool only
// when both are done. Pool exhaustion is a real behaviour, not an error —
// tx/rx paths observe alloc failure exactly as a DPDK app would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "pktio/frame.hpp"
#include "telemetry/metric.hpp"

namespace choir::pktio {

class Mempool;

/// Fault-injection hook for a pool (src/fault installs these): denied
/// allocations fail exactly like real exhaustion — callers see nullptr
/// and alloc_failures() advances — so every degradation path downstream
/// of a full pool can be exercised on demand.
class MempoolFaultHook {
 public:
  virtual ~MempoolFaultHook() = default;
  virtual bool deny_alloc() = 0;
};

struct Mbuf {
  Frame frame;
  Ns rx_timestamp = 0;     ///< set by the NIC on receive
  std::uint16_t port = 0;  ///< ingress port index
  std::uint32_t refcnt = 0;

  Mempool* pool = nullptr;
  std::uint32_t pool_index = 0;
};

/// Fixed-size pre-allocated buffer pool. A named pool binds watermark
/// telemetry (`pool.<name>.in_use_hwm`, `pool.<name>.alloc_failures`)
/// when a session is installed at construction; anonymous pools and
/// sessionless runs pay only the local high-water bookkeeping.
class Mempool {
 public:
  explicit Mempool(std::size_t capacity, std::string name = {});

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// Allocate a buffer with refcnt 1, or nullptr if the pool is empty.
  Mbuf* alloc();

  /// Increment the reference count (a recorder holding a sent packet).
  static void retain(Mbuf* m) { ++m->refcnt; }

  /// Drop one reference; the buffer returns to its pool at zero.
  static void release(Mbuf* m);

  std::size_t capacity() const { return storage_.size(); }
  std::size_t available() const { return free_.size(); }
  std::size_t in_use() const { return capacity() - available(); }
  /// Largest simultaneous allocation count ever reached (how close the
  /// pool came to exhaustion; capacity-planning evidence).
  std::size_t in_use_hwm() const { return in_use_hwm_; }
  const std::string& name() const { return name_; }
  std::uint64_t alloc_failures() const { return alloc_failures_; }
  /// Failures forced by the fault hook (a subset of alloc_failures()).
  std::uint64_t denied_allocs() const { return denied_allocs_; }

  /// Install (or clear, with nullptr) the fault hook.
  void set_fault(MempoolFaultHook* hook) { fault_ = hook; }

 private:
  friend struct Mbuf;
  void take_back(Mbuf* m);

  std::string name_;
  std::vector<Mbuf> storage_;
  std::vector<std::uint32_t> free_;
  std::size_t in_use_hwm_ = 0;
  std::uint64_t alloc_failures_ = 0;
  std::uint64_t denied_allocs_ = 0;
  MempoolFaultHook* fault_ = nullptr;
  telemetry::GaugeHandle tm_in_use_hwm_;
  telemetry::Exposure exposure_;
};

}  // namespace choir::pktio
