// Packet captures: what the recorder produces and the metrics consume.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/trial.hpp"
#include "pktio/frame.hpp"

namespace choir::trace {

struct CaptureRecord {
  Ns timestamp = 0;             ///< receiver (hardware) timestamp
  std::uint32_t wire_len = 0;
  std::uint16_t header_len = 0;
  bool has_trailer = false;
  std::array<std::uint8_t, pktio::kMaxHeaderBytes> header{};
  std::array<std::uint8_t, pktio::kTrailerBytes> trailer{};
  std::uint64_t payload_token = 0;

  /// Snapshot everything the recorder keeps from a frame.
  static CaptureRecord from_frame(const pktio::Frame& frame, Ns timestamp);

  /// Metrics-layer identity of this record, before occurrence tagging:
  /// the evaluation trailer where present, otherwise the payload token.
  /// Shared by Capture::to_trial and the streaming monitor feed.
  core::PacketId packet_id() const;
};

/// Identity of a record without a valid evaluation tag: its payload
/// token under a fixed high word ("raw-tags" in ASCII), so it can never
/// equal a tagged packet's id.
inline core::PacketId untagged_packet_id(std::uint64_t payload_token) {
  return core::PacketId{0x7261772d74616773ULL, payload_token};
}

/// An ordered packet capture from one receiver. Order is arrival order
/// (ring order), NOT timestamp order — hardware timestamps may be noisy
/// while delivery stays FIFO, and the two must not be conflated (the
/// paper's FABRIC runs show violent IAT noise with zero reordering).
class Capture {
 public:
  Capture() = default;
  explicit Capture(std::string name) : name_(std::move(name)) {}

  void append(const CaptureRecord& record) { records_.push_back(record); }
  void reserve(std::size_t n) { records_.reserve(n); }
  void clear() { records_.clear(); }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const CaptureRecord& operator[](std::size_t i) const { return records_[i]; }
  const std::vector<CaptureRecord>& records() const { return records_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Build the metrics-layer trial: identity from the evaluation trailer
  /// where present, otherwise from the payload token; duplicate ids are
  /// made unique by occurrence, per Section 3.
  core::Trial to_trial() const;

 private:
  std::string name_;
  std::vector<CaptureRecord> records_;
};

}  // namespace choir::trace
