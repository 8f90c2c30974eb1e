// Flow identity for the many-flow pipeline.
//
// A FlowKey is the classic 5-tuple plus an optional SSRC-style stream id
// taken from the evaluation trailer when one is present. The stream id
// keeps flows from different replayers distinct even when their address
// tuples collide (dual-replayer presets share the recorder-facing
// destination), mirroring how RTP distinguishes media streams sharing a
// transport tuple.
//
// Keys are small value types; hashing is a golden-ratio multiply +
// xor-shift mix so FlowTable's FlatIndex probes once in the common case.
#pragma once

#include <cstdint>
#include <string>

#include "pktio/headers.hpp"

namespace choir::flow {

/// Dense per-table flow index, assigned in first-seen order.
using FlowId = std::uint32_t;
inline constexpr FlowId kNoFlow = 0xFFFFFFFFu;

struct FlowKey {
  std::uint32_t src_ip = 0;   ///< host order, as in pktio::FlowAddress
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = pktio::kIpProtoUdp;
  std::uint32_t stream = 0;   ///< SSRC-style stream id; 0 when absent

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// Mix the key into a well-spread 64-bit hash. Low bits index the table
/// slots, high bits pick the shard (shard_of_key).
inline std::uint64_t hash_of(const FlowKey& key) {
  const std::uint64_t a = ((static_cast<std::uint64_t>(key.src_ip) << 32) |
                           key.dst_ip) +
                          key.protocol;
  const std::uint64_t b = (static_cast<std::uint64_t>(key.src_port) << 48) |
                          (static_cast<std::uint64_t>(key.dst_port) << 32) |
                          key.stream;
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ b;
  x ^= x >> 32;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 29;
  return x;
}

/// Shard owning `key` among `shards` partitions: the recorder's
/// `flow.<s>.*` counter namespace and `choirctl partition`'s node. High
/// hash bits: decorrelated from the tables' slot indexing (low bits).
inline int shard_of_key(const FlowKey& key, int shards) {
  return static_cast<int>((hash_of(key) >> 32) %
                          static_cast<std::uint64_t>(shards));
}

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const noexcept {
    return static_cast<std::size_t>(hash_of(key));
  }
};

/// Key of a parsed header stack (5-tuple part), with an optional stream.
FlowKey key_of(const pktio::FlowAddress& addr, std::uint32_t stream = 0);

/// "10.0.0.1:7000 > 10.0.0.4:7001 udp #3" — for tables and CLI output.
std::string to_string(const FlowKey& key);

}  // namespace choir::flow
