// Robustness of every wire-format decoder against arbitrary bytes:
// random headers/trailers/files must never crash, throw unexpectedly, or
// be mis-accepted as valid protocol messages at any meaningful rate.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "choir/control.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "pktio/headers.hpp"
#include "trace/pcap.hpp"
#include "trace/tag.hpp"
#include "trace/trace_file.hpp"

namespace choir {
namespace {

pktio::Frame random_frame(Rng& rng) {
  pktio::Frame frame;
  frame.wire_len = static_cast<std::uint32_t>(rng.uniform_u64(2000));
  frame.header_len = static_cast<std::uint16_t>(
      rng.uniform_u64(pktio::kMaxHeaderBytes + 1));
  frame.has_trailer = rng.chance(0.5);
  for (auto& b : frame.header) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  for (auto& b : frame.trailer) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return frame;
}

TEST(DecoderRobustness, HeaderParserNeverCrashes) {
  Rng rng(1);
  int valid = 0;
  for (int i = 0; i < 20000; ++i) {
    const pktio::Frame frame = random_frame(rng);
    if (pktio::parse_eth_ipv4_udp(frame).valid) ++valid;
  }
  // Random bytes almost never form a well-formed Eth+IPv4+UDP stack.
  EXPECT_LT(valid, 20);
}

TEST(DecoderRobustness, TagDecoderRejectsRandomTrailers) {
  Rng rng(2);
  int accepted = 0;
  for (int i = 0; i < 50000; ++i) {
    std::array<std::uint8_t, pktio::kTrailerBytes> trailer;
    for (auto& b : trailer) b = static_cast<std::uint8_t>(rng.next_u64());
    if (trace::decode_tag(trailer).has_value()) ++accepted;
  }
  // 16-bit magic: expect ~ 50000 / 65536 false accepts.
  EXPECT_LT(accepted, 10);
}

TEST(DecoderRobustness, ControlDecoderNeedsPortAndMagic) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const pktio::Frame frame = random_frame(rng);
    const auto msg = app::decode_control(frame);
    if (msg.has_value()) {
      // Acceptance implies both the UDP control port and the magic
      // matched — verify the invariant rather than assume a rate.
      const auto parsed = pktio::parse_eth_ipv4_udp(frame);
      ASSERT_TRUE(parsed.valid);
      ASSERT_EQ(parsed.flow.dst_port, app::kControlPort);
    }
  }
}

struct FileFuzz : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_fuzz_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override { std::remove(path.c_str()); }

  void write_random(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < n; ++i) {
      const char b = static_cast<char>(rng.next_u64());
      out.write(&b, 1);
    }
  }

  void write_bytes(const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  template <typename T>
  static void append(std::string& bytes, T value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  /// `load` must throw FormatError whose what() is exactly `expected`.
  template <typename Fn>
  static void expect_format_error(Fn load, const std::string& expected) {
    try {
      load();
      ADD_FAILURE() << "no FormatError; expected: " << expected;
    } catch (const FormatError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
};

TEST_F(FileFuzz, TraceReaderThrowsNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    write_random(16 + seed * 13, seed);
    EXPECT_THROW(trace::MappedCapture(path).materialize(), Error)
        << "seed " << seed;
  }
}

TEST_F(FileFuzz, PcapReaderThrowsNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    write_random(16 + seed * 13, seed);
    EXPECT_THROW(trace::read_pcap(path), Error) << "seed " << seed;
  }
}

TEST_F(FileFuzz, TraceReaderThrowsTypedFormatError) {
  // Malformed external input is a recoverable FormatError, never the
  // generic Error that CHOIR_EXPECT raises for API misuse.
  write_bytes("NOTATRCF");
  EXPECT_THROW(trace::MappedCapture(path).materialize(), FormatError);

  // Valid magic, truncated before the version field.
  write_bytes("CHOIRTRC");
  EXPECT_THROW(trace::MappedCapture(path).materialize(), FormatError);

  // Unsupported version.
  std::string bad_version = "CHOIRTRC";
  append<std::uint32_t>(bad_version, 0xdeadbeef);
  append<std::uint64_t>(bad_version, 0);
  write_bytes(bad_version);
  EXPECT_THROW(trace::MappedCapture(path).materialize(), FormatError);

  // Record count far beyond what the file can hold: must be rejected
  // before any allocation is sized from it.
  std::string huge_count = "CHOIRTRC";
  append<std::uint32_t>(huge_count, trace::kTraceVersion);
  append<std::uint64_t>(huge_count, ~0ULL);
  write_bytes(huge_count);
  EXPECT_THROW(trace::MappedCapture(path).materialize(), FormatError);

  EXPECT_THROW(trace::MappedCapture(path + ".does-not-exist").materialize(),
               FormatError);
}

TEST_F(FileFuzz, TraceReaderRejectsImplausibleRecordFields) {
  // A structurally valid 10-record file whose record 7 declares
  // header_len beyond the fixed header array: typed rejection naming the
  // record, no overread.
  trace::Capture cap("fields");
  pktio::Frame frame;
  frame.wire_len = 300;
  frame.header_len = pktio::kEthIpv4UdpLen;
  for (int i = 0; i < 10; ++i) {
    cap.append(trace::CaptureRecord::from_frame(frame, 1 + i));
  }
  trace::write_trace(cap, path);

  std::ifstream in(path, std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)), {});
  in.close();
  // Record layout after the file header: i64 timestamp, u32 wire_len,
  // u16 header_len.
  const std::size_t record7 =
      trace::kTraceHeaderBytes + 7 * trace::kTraceRecordBytes;
  std::string bytes = valid;
  bytes[record7 + 8 + 4] = '\xff';
  bytes[record7 + 8 + 4 + 1] = '\xff';
  write_bytes(bytes);
  expect_format_error([&] { trace::MappedCapture(path).materialize(); },
                      "trace record 7 header_len exceeds maximum: " + path);

  // wire_len smaller than header_len is likewise implausible.
  bytes = valid;
  for (std::size_t k = 0; k < 4; ++k) bytes[record7 + 8 + k] = 0;
  write_bytes(bytes);
  expect_format_error([&] { trace::MappedCapture(path).materialize(); },
                      "trace record 7 has implausible wire_len: " + path);
}

TEST_F(FileFuzz, PcapReaderThrowsTypedFormatError) {
  // Wrong magic.
  std::string bad_magic;
  append<std::uint32_t>(bad_magic, 0x12345678u);
  write_bytes(bad_magic);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  // Truncated global header after a valid magic.
  std::string truncated;
  append<std::uint32_t>(truncated, 0xa1b23c4du);
  append<std::uint16_t>(truncated, 2);
  write_bytes(truncated);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  auto global_header = [](std::uint32_t snaplen, std::uint32_t linktype) {
    std::string bytes;
    append<std::uint32_t>(bytes, 0xa1b23c4du);
    append<std::uint16_t>(bytes, 2);
    append<std::uint16_t>(bytes, 4);
    append<std::int32_t>(bytes, 0);
    append<std::uint32_t>(bytes, 0);
    append<std::uint32_t>(bytes, snaplen);
    append<std::uint32_t>(bytes, linktype);
    return bytes;
  };

  // Unsupported linktype and implausible snaplen.
  write_bytes(global_header(2048, 101));
  EXPECT_THROW(trace::read_pcap(path), FormatError);
  write_bytes(global_header(0, 1));
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  // A record header cut off after its timestamp.
  std::string truncated_record = global_header(128, 1);
  append<std::uint32_t>(truncated_record, 0);  // sec
  append<std::uint32_t>(truncated_record, 0);  // frac
  write_bytes(truncated_record);
  expect_format_error([&] { trace::read_pcap(path); },
                      "truncated pcap record header: " + path);

  // Records claiming more captured bytes than the snaplen allows, or
  // than the original frame held.
  struct Lengths {
    std::uint32_t incl, orig;
  };
  for (const Lengths l : {Lengths{256, 256}, Lengths{64, 60}}) {
    std::string bad_record = global_header(128, 1);
    append<std::uint32_t>(bad_record, 0);  // sec
    append<std::uint32_t>(bad_record, 0);  // frac
    append<std::uint32_t>(bad_record, l.incl);
    append<std::uint32_t>(bad_record, l.orig);
    bad_record.append(l.incl, '\0');
    write_bytes(bad_record);
    expect_format_error([&] { trace::read_pcap(path); },
                        "malformed pcap record lengths: " + path);
  }

  // Record header promising more packet bytes than the file holds.
  std::string short_packet = global_header(2048, 1);
  append<std::uint32_t>(short_packet, 0);
  append<std::uint32_t>(short_packet, 0);
  append<std::uint32_t>(short_packet, 64);
  append<std::uint32_t>(short_packet, 64);
  short_packet.append(10, '\0');  // only 10 of the promised 64 bytes
  write_bytes(short_packet);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  EXPECT_THROW(trace::read_pcap(path + ".does-not-exist"), FormatError);
}

TEST_F(FileFuzz, TruncatedValidTraceRejectedAtEveryPrefix) {
  // Chop a valid two-record trace at every length: each prefix must be
  // rejected with a typed FormatError (or load fully at full length).
  trace::Capture cap("prefix");
  pktio::Frame frame;
  frame.wire_len = 400;
  cap.append(trace::CaptureRecord::from_frame(frame, 10));
  cap.append(trace::CaptureRecord::from_frame(frame, 20));
  trace::write_trace(cap, path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    write_bytes(bytes.substr(0, n));
    EXPECT_THROW(trace::MappedCapture(path).materialize(), FormatError)
        << "prefix " << n;
  }
  write_bytes(bytes);
  EXPECT_EQ(trace::MappedCapture(path).materialize().size(), 2u);
}

TEST_F(FileFuzz, CorruptedValidTraceRejectedOrSane) {
  // Start from a valid file and flip bytes: the reader must either throw
  // or return something structurally sane (never crash or hang).
  trace::Capture cap("fuzz");
  pktio::Frame frame;
  frame.wire_len = 500;
  cap.append(trace::CaptureRecord::from_frame(frame, 123));
  cap.append(trace::CaptureRecord::from_frame(frame, 456));
  trace::write_trace(cap, path);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = bytes;
    mutated[rng.uniform_u64(mutated.size())] ^=
        static_cast<char>(1 + rng.uniform_u64(255));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << mutated;
    out.close();
    try {
      const trace::Capture loaded = trace::MappedCapture(path).materialize();
      EXPECT_LE(loaded.size(), 2u);
    } catch (const Error&) {
      // rejection is fine
    }
  }
}

}  // namespace
}  // namespace choir
