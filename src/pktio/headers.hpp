// Minimal Ethernet / IPv4 / UDP header construction and parsing.
//
// Used by the traffic generators to emit realistic frames and by the pcap
// exporter to reconstruct byte-accurate captures. Network byte order
// throughout; no alignment assumptions (all access via byte writes).
#pragma once

#include <array>
#include <cstdint>

#include "pktio/frame.hpp"

namespace choir::pktio {

inline constexpr std::uint16_t kEthHeaderLen = 14;
inline constexpr std::uint16_t kIpv4HeaderLen = 20;
inline constexpr std::uint16_t kUdpHeaderLen = 8;
inline constexpr std::uint16_t kEthIpv4UdpLen =
    kEthHeaderLen + kIpv4HeaderLen + kUdpHeaderLen;  // 42 bytes
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kIpProtoUdp = 17;

struct MacAddress {
  std::array<std::uint8_t, 6> bytes{};
};

/// The 48-bit address as an integer (bytes big-endian): equal keys are
/// equal addresses, so lookups compare one word instead of six bytes.
constexpr std::uint64_t mac_key(const MacAddress& mac) {
  std::uint64_t k = 0;
  for (const std::uint8_t b : mac.bytes) k = (k << 8) | b;
  return k;
}

struct FlowAddress {
  MacAddress src_mac;
  MacAddress dst_mac;
  std::uint32_t src_ip = 0;  ///< host order; written big-endian
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

/// Build a stable MAC from a small node index (locally administered).
MacAddress mac_for_node(std::uint16_t node);

/// Build 10.0.x.y style addresses from a node index.
std::uint32_t ip_for_node(std::uint16_t node);

/// Inverse of ip_for_node: the node index sits in the low two octets.
constexpr std::uint16_t node_for_ip(std::uint32_t ip) {
  return static_cast<std::uint16_t>(ip & 0xffff);
}

/// Write an Ethernet+IPv4+UDP header stack into `frame.header` and set
/// header_len. `frame.wire_len` must already hold the full frame size;
/// the IPv4/UDP length fields are derived from it.
void write_eth_ipv4_udp(Frame& frame, const FlowAddress& flow);

/// Parsed view of the header stack; valid() is false if the frame does
/// not carry an Ethernet+IPv4+UDP prefix.
struct ParsedHeaders {
  bool valid = false;
  FlowAddress flow;
  std::uint16_t ip_total_len = 0;
  std::uint16_t udp_len = 0;
};

ParsedHeaders parse_eth_ipv4_udp(const Frame& frame);

/// RFC 1071 checksum over the IPv4 header bytes (for export fidelity).
std::uint16_t ipv4_header_checksum(const std::uint8_t* hdr20);

}  // namespace choir::pktio
