// The 16-byte evaluation trailer.
//
// Section 6 of the paper: "the packets were stamped with unique 16-byte
// tags in the replayer, which included the replay node they were emitted
// by". The trailer is what defines packet identity for the consistency
// metrics. Layout (big-endian):
//   bytes  0-1   magic 0xC401
//   bytes  2-3   replayer id
//   bytes  4-7   stream id
//   bytes  8-15  sequence number
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>

#include "core/trial.hpp"
#include "pktio/frame.hpp"

namespace choir::trace {

inline constexpr std::uint16_t kTagMagic = 0xC401;

struct Tag {
  std::uint16_t replayer = 0;
  std::uint32_t stream = 0;
  std::uint64_t sequence = 0;

  friend bool operator==(const Tag&, const Tag&) = default;
};

/// Serialize a tag into a 16-byte trailer.
std::array<std::uint8_t, pktio::kTrailerBytes> encode_tag(const Tag& tag);

/// Parse a trailer; nullopt if the magic does not match.
std::optional<Tag> decode_tag(
    const std::array<std::uint8_t, pktio::kTrailerBytes>& trailer);

/// Stamp `frame` with the tag (sets has_trailer).
void stamp(pktio::Frame& frame, const Tag& tag);

/// Packet identity for the metrics layer: the trailer verbatim.
core::PacketId packet_id_of(const Tag& tag);

/// Packet identity of the 16 trailer bytes at `trailer`, read as two
/// big-endian 64-bit words: `hi` is bytes 0-7 (magic, replayer, stream)
/// and `lo` bytes 8-15 (sequence), which is packet_id_of(*decode_tag(t))
/// without rebuilding the tag byte by byte. nullopt when the magic does
/// not match, as decode_tag.
inline std::optional<core::PacketId> trailer_packet_id(
    const std::uint8_t* trailer) {
  static_assert(pktio::kTrailerBytes == 16);
  core::PacketId id;
  std::memcpy(&id.hi, trailer, sizeof id.hi);
  std::memcpy(&id.lo, trailer + sizeof id.hi, sizeof id.lo);
  if constexpr (std::endian::native == std::endian::little) {
    id.hi = __builtin_bswap64(id.hi);
    id.lo = __builtin_bswap64(id.lo);
  }
  if ((id.hi >> 48) != kTagMagic) return std::nullopt;
  return id;
}

}  // namespace choir::trace
