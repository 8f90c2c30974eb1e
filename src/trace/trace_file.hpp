// Native binary capture format (compact, lossless for our records).
//
// Layout, little-endian:
//   magic   8 bytes  "CHOIRTRC"
//   version u32
//   count   u64
//   records count x { timestamp i64, wire_len u32, header_len u16,
//                     flags u8, header 48 bytes, trailer 16 bytes,
//                     payload_token u64 }
//
// Records are a fixed 87 bytes, so the file supports random access:
// MappedCapture maps it read-only and serves timestamps/ids straight
// from the page cache (field accessors memcpy, so the odd record stride
// never produces a misaligned load).
#pragma once

#include <string>
#include <vector>

#include "trace/capture.hpp"

namespace choir::trace {

inline constexpr std::uint32_t kTraceVersion = 1;

/// Header and record sizes of the on-disk format (shared by the stream
/// reader's count validation and the mapped loader's offsets).
inline constexpr std::size_t kTraceHeaderBytes = 8 + 4 + 8;
inline constexpr std::size_t kTraceRecordBytes =
    8 + 4 + 2 + 1 + pktio::kMaxHeaderBytes + pktio::kTrailerBytes + 8;

/// Write `capture` to `path`. Throws choir::Error on I/O failure.
void write_trace(const Capture& capture, const std::string& path);

/// Read a capture back: MappedCapture(path).materialize(). Throws
/// FormatError on I/O failure or a malformed/mismatched file.
Capture read_trace(const std::string& path);

/// Zero-copy view of a trace file, and the format's one decoder: the
/// records stay on disk (mmap'd read-only) and are decoded field-by-field
/// on access, so building a metrics trial or replay feed never
/// materializes the 48-byte headers it does not need. On platforms or
/// files where mapping is unavailable the file is read into an owned
/// buffer and decoded the same way (zero_copy() reports which path is
/// active). The constructor validates the header and every record, so a
/// malformed file throws FormatError there. Foreign-endian files fail
/// the version check.
class MappedCapture {
 public:
  explicit MappedCapture(const std::string& path);
  ~MappedCapture();

  MappedCapture(const MappedCapture&) = delete;
  MappedCapture& operator=(const MappedCapture&) = delete;
  MappedCapture(MappedCapture&& other) noexcept;
  MappedCapture& operator=(MappedCapture&& other) noexcept;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool zero_copy() const { return map_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Receiver timestamp of record i.
  Ns timestamp(std::size_t i) const;

  /// Metrics-layer identity of record i, before occurrence tagging —
  /// the same trailer-or-payload-token rule as CaptureRecord::packet_id.
  core::PacketId raw_packet_id(std::size_t i) const;

  /// Decode one full record.
  CaptureRecord record(std::size_t i) const;

  /// Build the metrics trial straight from the mapped bytes (ids and
  /// timestamps only). Identical to materialize().to_trial().
  core::Trial to_trial() const;

  /// Full in-memory copy of every record.
  Capture materialize() const;

 private:
  const std::uint8_t* record_ptr(std::size_t i) const;
  void load();
  void unmap() noexcept;

  std::string path_;
  void* map_ = nullptr;        ///< whole-file mapping, or nullptr
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> owned_;  ///< the file, when it is not mapped
  const std::uint8_t* bytes_ = nullptr;  ///< the file: map_ or owned_
  std::uint64_t count_ = 0;
};

}  // namespace choir::trace
