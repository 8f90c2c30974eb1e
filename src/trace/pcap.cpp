#include "trace/pcap.hpp"

#include <algorithm>
#include <fstream>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "pktio/headers.hpp"
#include "trace/tag.hpp"

namespace choir::trace {

namespace {
template <typename T>
void put(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T take(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}
}  // namespace

std::uint8_t payload_filler_byte(std::uint64_t token, std::uint32_t i) {
  std::uint64_t state = token + 0x100 * (i / 8);
  const std::uint64_t word = splitmix64(state);
  return static_cast<std::uint8_t>(word >> (8 * (i % 8)));
}

void write_pcap(const Capture& capture, const std::string& path,
                const PcapOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHOIR_EXPECT(out.good(), "cannot open pcap file for writing: " + path);

  // Global header: nanosecond pcap, LINKTYPE_ETHERNET.
  put<std::uint32_t>(out, 0xa1b23c4d);
  put<std::uint16_t>(out, 2);   // major
  put<std::uint16_t>(out, 4);   // minor
  put<std::int32_t>(out, 0);    // thiszone
  put<std::uint32_t>(out, 0);   // sigfigs
  put<std::uint32_t>(out, options.snaplen);
  put<std::uint32_t>(out, 1);   // LINKTYPE_ETHERNET

  std::vector<std::uint8_t> bytes;
  for (const CaptureRecord& r : capture.records()) {
    const std::uint32_t incl = std::min(r.wire_len, options.snaplen);
    // Timestamps may legitimately be slightly negative relative to the
    // simulation epoch after noise; clamp for the pcap container only.
    const Ns ts = r.timestamp < 0 ? 0 : r.timestamp;
    put<std::uint32_t>(out, static_cast<std::uint32_t>(ts / kNsPerSec));
    put<std::uint32_t>(out, static_cast<std::uint32_t>(ts % kNsPerSec));
    put<std::uint32_t>(out, incl);
    put<std::uint32_t>(out, r.wire_len);

    bytes.assign(r.wire_len, 0);
    std::copy_n(r.header.begin(), std::min<std::size_t>(r.header_len, bytes.size()),
                bytes.begin());
    const std::uint32_t trailer_len = r.has_trailer ? pktio::kTrailerBytes : 0;
    const std::uint32_t payload_begin = r.header_len;
    const std::uint32_t payload_end =
        r.wire_len > trailer_len + payload_begin ? r.wire_len - trailer_len
                                                 : payload_begin;
    for (std::uint32_t i = payload_begin; i < payload_end; ++i) {
      bytes[i] = payload_filler_byte(r.payload_token, i - payload_begin);
    }
    if (r.has_trailer && r.wire_len >= trailer_len) {
      std::copy(r.trailer.begin(), r.trailer.end(),
                bytes.begin() + (r.wire_len - trailer_len));
    }
    out.write(reinterpret_cast<const char*>(bytes.data()), incl);
  }
  CHOIR_EXPECT(out.good(), "write failed for pcap file: " + path);
}

Capture read_pcap(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHOIR_CHECK_FORMAT(in.good(), "cannot open pcap file: " + path);

  const auto magic = take<std::uint32_t>(in);
  CHOIR_CHECK_FORMAT(!in.fail(), "truncated pcap global header: " + path);
  bool nanosecond = false;
  if (magic == 0xa1b23c4d) {
    nanosecond = true;
  } else {
    CHOIR_CHECK_FORMAT(magic == 0xa1b2c3d4,
                       "not a little-endian pcap: " + path);
  }
  take<std::uint16_t>(in);  // version major
  take<std::uint16_t>(in);  // version minor
  take<std::int32_t>(in);   // thiszone
  take<std::uint32_t>(in);  // sigfigs
  const auto snaplen = take<std::uint32_t>(in);
  const auto linktype = take<std::uint32_t>(in);
  CHOIR_CHECK_FORMAT(in.good(), "truncated pcap global header: " + path);
  CHOIR_CHECK_FORMAT(linktype == 1,
                     "only LINKTYPE_ETHERNET pcaps are supported");
  CHOIR_CHECK_FORMAT(snaplen > 0 && snaplen <= (1u << 24),
                     "implausible snaplen");

  Capture capture(path);
  std::vector<std::uint8_t> bytes;
  for (;;) {
    const auto sec = take<std::uint32_t>(in);
    if (in.eof()) break;
    const auto frac = take<std::uint32_t>(in);
    const auto incl = take<std::uint32_t>(in);
    const auto orig = take<std::uint32_t>(in);
    CHOIR_CHECK_FORMAT(in.good(), "truncated pcap record header: " + path);
    CHOIR_CHECK_FORMAT(incl <= snaplen && incl <= orig,
                       "malformed pcap record lengths: " + path);
    bytes.resize(incl);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(incl));
    CHOIR_CHECK_FORMAT(in.good() || in.eof(),
                       "truncated pcap packet: " + path);
    CHOIR_CHECK_FORMAT(static_cast<std::uint32_t>(in.gcount()) == incl,
                       "truncated pcap packet: " + path);

    CaptureRecord record;
    record.timestamp = static_cast<Ns>(sec) * kNsPerSec +
                       (nanosecond ? static_cast<Ns>(frac)
                                   : static_cast<Ns>(frac) * kNsPerUs);
    record.wire_len = orig;

    // Recover the header region (up to our stored prefix size).
    const auto head =
        static_cast<std::uint16_t>(std::min<std::uint32_t>(
            incl, pktio::kMaxHeaderBytes));
    std::copy_n(bytes.begin(), head, record.header.begin());
    pktio::Frame probe;
    probe.wire_len = orig;
    probe.header = record.header;
    probe.header_len = pktio::kEthIpv4UdpLen;
    record.header_len =
        head >= pktio::kEthIpv4UdpLen && pktio::parse_eth_ipv4_udp(probe).valid
            ? pktio::kEthIpv4UdpLen
            : head;

    // A full-length record whose last 16 bytes carry the tag magic is a
    // Choir evaluation trailer.
    if (incl == orig && incl >= pktio::kTrailerBytes) {
      std::array<std::uint8_t, pktio::kTrailerBytes> tail;
      std::copy_n(bytes.end() - pktio::kTrailerBytes, pktio::kTrailerBytes,
                  tail.begin());
      if (decode_tag(tail).has_value()) {
        record.trailer = tail;
        record.has_trailer = true;
      }
    }

    // Digest the payload between header and trailer into the token so
    // untagged packets keep a content-derived identity.
    const std::uint32_t body_end =
        record.has_trailer ? incl - pktio::kTrailerBytes : incl;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::uint32_t i = record.header_len; i < body_end; ++i) {
      digest = (digest ^ bytes[i]) * 0x100000001b3ULL;
    }
    record.payload_token = digest;
    capture.append(record);
  }
  return capture;
}

}  // namespace choir::trace
