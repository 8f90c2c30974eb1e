#include "trace/trace_file.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "core/metrics.hpp"
#include "trace/tag.hpp"

namespace choir::trace {
namespace {

struct TraceFileTest : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_trace_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".trc";
  }
  void TearDown() override { std::remove(path.c_str()); }
};

Capture sample_capture(std::size_t n) {
  Capture cap("sample");
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Frame frame;
    frame.wire_len = 1400;
    frame.header_len = 42;
    frame.header[0] = static_cast<std::uint8_t>(i);
    frame.payload_token = i * 31;
    stamp(frame, Tag{2, 1, i});
    cap.append(CaptureRecord::from_frame(frame, static_cast<Ns>(i) * 280));
  }
  return cap;
}

/// The file bytes write_trace produced before records were encoded in
/// chunks, transcribed field by field from the original stream writer.
std::string golden_trace_bytes(const Capture& capture) {
  std::string bytes;
  auto put = [&bytes](const auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  bytes.append("CHOIRTRC", 8);
  put(std::uint32_t{kTraceVersion});
  put(std::uint64_t{capture.size()});
  for (const CaptureRecord& r : capture.records()) {
    put(std::int64_t{r.timestamp});
    put(std::uint32_t{r.wire_len});
    put(std::uint16_t{r.header_len});
    put(static_cast<std::uint8_t>(r.has_trailer ? 1 : 0));
    bytes.append(reinterpret_cast<const char*>(r.header.data()),
                 r.header.size());
    bytes.append(reinterpret_cast<const char*>(r.trailer.data()),
                 r.trailer.size());
    put(std::uint64_t{r.payload_token});
  }
  return bytes;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), {});
}

/// Records that vary every field: trailers on every other record,
/// header_len cycling up to kMaxHeaderBytes, negative timestamps.
Capture varied_capture(std::size_t n) {
  Capture cap("varied");
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Frame frame;
    frame.wire_len = static_cast<std::uint32_t>(64 + (i * 37) % 9000);
    frame.header_len =
        static_cast<std::uint16_t>(i % (pktio::kMaxHeaderBytes + 1));
    for (std::size_t b = 0; b < frame.header.size(); ++b) {
      frame.header[b] = static_cast<std::uint8_t>(i * 7 + b);
    }
    frame.payload_token = 0x9E3779B97F4A7C15ULL * (i + 1);
    if (i % 2 == 0) stamp(frame, Tag{3, static_cast<std::uint32_t>(i % 5), i});
    const Ns ts = (static_cast<Ns>(i) - static_cast<Ns>(n / 2)) * 1013;
    cap.append(CaptureRecord::from_frame(frame, ts));
  }
  return cap;
}

TEST_F(TraceFileTest, WriterBytesMatchGoldenTranscription) {
  for (const std::size_t n : {0u, 1u, 4095u, 4096u, 4097u}) {
    SCOPED_TRACE(n);
    const Capture cap = varied_capture(n);
    write_trace(cap, path);
    EXPECT_EQ(file_bytes(path), golden_trace_bytes(cap));

    const Capture back = MappedCapture(path).materialize();
    ASSERT_EQ(back.size(), cap.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back[i].timestamp, cap[i].timestamp);
      EXPECT_EQ(back[i].wire_len, cap[i].wire_len);
      EXPECT_EQ(back[i].header_len, cap[i].header_len);
      EXPECT_EQ(back[i].header, cap[i].header);
      EXPECT_EQ(back[i].has_trailer, cap[i].has_trailer);
      EXPECT_EQ(back[i].trailer, cap[i].trailer);
      EXPECT_EQ(back[i].payload_token, cap[i].payload_token);
    }
  }
}

TEST_F(TraceFileTest, WriterCoversEdgeFields) {
  // The extremes the varied capture does not pin individually.
  Capture cap("edges");
  pktio::Frame frame;
  frame.wire_len = 9000;
  frame.header_len = pktio::kMaxHeaderBytes;
  frame.header.fill(0xAB);
  frame.payload_token = ~0ULL;
  stamp(frame, Tag{1, 2, 3});
  cap.append(CaptureRecord::from_frame(frame, -1));
  frame.has_trailer = false;
  frame.trailer.fill(0);
  frame.header_len = 0;
  cap.append(CaptureRecord::from_frame(frame, INT64_MIN));
  cap.append(CaptureRecord::from_frame(frame, INT64_MAX));
  write_trace(cap, path);
  EXPECT_EQ(file_bytes(path), golden_trace_bytes(cap));
  const MappedCapture mapped(path);
  ASSERT_EQ(mapped.size(), 3u);
  EXPECT_EQ(mapped.record(0).header_len, pktio::kMaxHeaderBytes);
  EXPECT_TRUE(mapped.record(0).has_trailer);
  EXPECT_EQ(mapped.timestamp(1), INT64_MIN);
  EXPECT_EQ(mapped.timestamp(2), INT64_MAX);
}

TEST_F(TraceFileTest, RoundTripPreservesRecords) {
  const Capture original = sample_capture(100);
  write_trace(original, path);
  const Capture loaded = MappedCapture(path).materialize();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].timestamp, original[i].timestamp);
    EXPECT_EQ(loaded[i].wire_len, original[i].wire_len);
    EXPECT_EQ(loaded[i].header_len, original[i].header_len);
    EXPECT_EQ(loaded[i].header, original[i].header);
    EXPECT_EQ(loaded[i].has_trailer, original[i].has_trailer);
    EXPECT_EQ(loaded[i].trailer, original[i].trailer);
    EXPECT_EQ(loaded[i].payload_token, original[i].payload_token);
  }
}

TEST_F(TraceFileTest, EmptyCaptureRoundTrips) {
  write_trace(Capture("empty"), path);
  EXPECT_EQ(MappedCapture(path).materialize().size(), 0u);
}

TEST_F(TraceFileTest, TrialIdenticalAfterRoundTrip) {
  const Capture original = sample_capture(50);
  write_trace(original, path);
  const Capture loaded = MappedCapture(path).materialize();
  const auto r = core::compare_trials(original.to_trial(), loaded.to_trial());
  EXPECT_EQ(r.metrics.kappa, 1.0);
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(MappedCapture(path + ".does-not-exist").materialize(),
               Error);
}

TEST_F(TraceFileTest, BadMagicRejected) {
  std::ofstream out(path, std::ios::binary);
  out << "NOTATRACE-FILE-AT-ALL";
  out.close();
  EXPECT_THROW(MappedCapture(path).materialize(), Error);
}

TEST_F(TraceFileTest, TruncatedFileRejected) {
  write_trace(sample_capture(10), path);
  // Chop the last record in half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(in.tellg());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::in);
  out.close();
  ASSERT_EQ(truncate(path.c_str(), size - 20), 0);
  EXPECT_THROW(MappedCapture(path).materialize(), Error);
}

// --- MappedCapture ------------------------------------------------------

TEST_F(TraceFileTest, MappedMatchesReadTrace) {
  const Capture original = sample_capture(100);
  write_trace(original, path);
  const Capture loaded = MappedCapture(path).materialize();
  const MappedCapture mapped(path);
  EXPECT_TRUE(mapped.zero_copy());
  ASSERT_EQ(mapped.size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(mapped.timestamp(i), loaded[i].timestamp);
    EXPECT_EQ(mapped.raw_packet_id(i).hi, loaded[i].packet_id().hi);
    EXPECT_EQ(mapped.raw_packet_id(i).lo, loaded[i].packet_id().lo);
    const CaptureRecord r = mapped.record(i);
    EXPECT_EQ(r.timestamp, loaded[i].timestamp);
    EXPECT_EQ(r.wire_len, loaded[i].wire_len);
    EXPECT_EQ(r.header_len, loaded[i].header_len);
    EXPECT_EQ(r.header, loaded[i].header);
    EXPECT_EQ(r.has_trailer, loaded[i].has_trailer);
    EXPECT_EQ(r.trailer, loaded[i].trailer);
    EXPECT_EQ(r.payload_token, loaded[i].payload_token);
  }
}

TEST_F(TraceFileTest, MappedToTrialMatchesCapture) {
  write_trace(sample_capture(200), path);
  const core::Trial from_read =
      MappedCapture(path).materialize().to_trial();
  const core::Trial from_map = MappedCapture(path).to_trial();
  ASSERT_EQ(from_map.size(), from_read.size());
  for (std::size_t i = 0; i < from_read.size(); ++i) {
    EXPECT_EQ(from_map[i].id.hi, from_read[i].id.hi);
    EXPECT_EQ(from_map[i].id.lo, from_read[i].id.lo);
    EXPECT_EQ(from_map[i].time, from_read[i].time);
  }
}

TEST_F(TraceFileTest, MappedMaterializeMatchesReadTrace) {
  const Capture loaded = sample_capture(40);
  write_trace(loaded, path);
  const Capture materialized = MappedCapture(path).materialize();
  ASSERT_EQ(materialized.size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(materialized[i].timestamp, loaded[i].timestamp);
    EXPECT_EQ(materialized[i].header, loaded[i].header);
    EXPECT_EQ(materialized[i].trailer, loaded[i].trailer);
    EXPECT_EQ(materialized[i].payload_token, loaded[i].payload_token);
  }
}

TEST_F(TraceFileTest, MappedUntaggedIdFallsBackToPayloadToken) {
  Capture cap("untagged");
  pktio::Frame frame;
  frame.wire_len = 64;
  frame.payload_token = 0xDEADBEEF;
  cap.append(CaptureRecord::from_frame(frame, 5));
  write_trace(cap, path);
  const MappedCapture mapped(path);
  EXPECT_EQ(mapped.raw_packet_id(0).lo, 0xDEADBEEFu);
  EXPECT_EQ(mapped.raw_packet_id(0).hi, cap[0].packet_id().hi);
}

TEST_F(TraceFileTest, WrongMagicFallsBackToPayloadToken) {
  // A trailer whose magic does not match is no tag: CaptureRecord and
  // MappedCapture both fall back to the payload token, and a record with
  // the magic keeps its tag's id.
  Capture cap("magic");
  for (std::uint64_t i = 0; i < 4; ++i) {
    pktio::Frame frame;
    frame.wire_len = 64;
    frame.payload_token = 0xABC0 + i;
    stamp(frame, Tag{3, 2, i});
    if (i % 2 == 1) frame.trailer[i == 1 ? 0 : 1] ^= 0x40;
    cap.append(CaptureRecord::from_frame(frame, static_cast<Ns>(i)));
  }
  write_trace(cap, path);
  const MappedCapture mapped(path);
  for (std::uint64_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const core::PacketId expected = i % 2 == 1
                                        ? untagged_packet_id(0xABC0 + i)
                                        : packet_id_of(Tag{3, 2, i});
    EXPECT_EQ(cap[i].packet_id(), expected);
    EXPECT_EQ(mapped.raw_packet_id(i), expected);
  }
}

TEST_F(TraceFileTest, MappedEmptyTrace) {
  write_trace(Capture("empty"), path);
  const MappedCapture mapped(path);
  EXPECT_TRUE(mapped.empty());
  EXPECT_EQ(mapped.to_trial().size(), 0u);
}

TEST_F(TraceFileTest, MappedMissingFileThrows) {
  EXPECT_THROW(MappedCapture(path + ".does-not-exist"), FormatError);
}

TEST_F(TraceFileTest, MappedBadMagicRejected) {
  std::ofstream out(path, std::ios::binary);
  out << "NOTATRACE-FILE-AT-ALL";
  out.close();
  EXPECT_THROW(MappedCapture{path}, FormatError);
}

TEST_F(TraceFileTest, MappedBadVersionRejected) {
  write_trace(sample_capture(3), path);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field follows the 8-byte magic
  const std::uint32_t bad = 999;
  f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  f.close();
  EXPECT_THROW(MappedCapture{path}, FormatError);
}

TEST_F(TraceFileTest, MappedTruncatedRejected) {
  write_trace(sample_capture(10), path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(in.tellg());
  in.close();
  ASSERT_EQ(truncate(path.c_str(), size - 20), 0);
  EXPECT_THROW(MappedCapture{path}, FormatError);
}

TEST_F(TraceFileTest, MappedCorruptWireLenRejected) {
  write_trace(sample_capture(5), path);
  // Record 2's wire_len field: header + 2 records + 8-byte offset.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(kTraceHeaderBytes +
                                      2 * kTraceRecordBytes + 8));
  const std::uint32_t bad = 0xFFFFFFFF;
  f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  f.close();
  EXPECT_THROW(MappedCapture{path}, FormatError);
}

TEST_F(TraceFileTest, NegativeTimestampsSupported) {
  Capture cap("neg");
  pktio::Frame frame;
  frame.wire_len = 64;
  cap.append(CaptureRecord::from_frame(frame, -12345));
  write_trace(cap, path);
  EXPECT_EQ(MappedCapture(path).materialize()[0].timestamp, -12345);
}

}  // namespace
}  // namespace choir::trace
