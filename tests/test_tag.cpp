#include "trace/tag.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace choir::trace {
namespace {

TEST(Tag, EncodeDecodeRoundTrip) {
  const Tag tag{/*replayer=*/10, /*stream=*/3, /*sequence=*/0x0123456789abcdefULL};
  const auto trailer = encode_tag(tag);
  const auto decoded = decode_tag(trailer);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, tag);
}

TEST(Tag, MagicGuardsDecode) {
  auto trailer = encode_tag(Tag{1, 2, 3});
  trailer[0] ^= 0xff;
  EXPECT_FALSE(decode_tag(trailer).has_value());
}

TEST(Tag, ZeroTagValid) {
  const auto decoded = decode_tag(encode_tag(Tag{}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, Tag{});
}

TEST(Tag, ExtremeValuesSurvive) {
  const Tag tag{0xffff, 0xffffffff, 0xffffffffffffffffULL};
  EXPECT_EQ(*decode_tag(encode_tag(tag)), tag);
}

TEST(Tag, StampSetsTrailer) {
  pktio::Frame frame;
  frame.wire_len = 1400;
  EXPECT_FALSE(frame.has_trailer);
  stamp(frame, Tag{7, 1, 99});
  EXPECT_TRUE(frame.has_trailer);
  EXPECT_EQ(decode_tag(frame.trailer)->sequence, 99u);
}

TEST(Tag, PacketIdsDistinctAcrossFields) {
  const auto base = packet_id_of(Tag{1, 1, 1});
  EXPECT_NE(packet_id_of(Tag{2, 1, 1}), base);  // replayer differs
  EXPECT_NE(packet_id_of(Tag{1, 2, 1}), base);  // stream differs
  EXPECT_NE(packet_id_of(Tag{1, 1, 2}), base);  // sequence differs
}

TEST(Tag, PacketIdDeterministic) {
  EXPECT_EQ(packet_id_of(Tag{3, 4, 5}), packet_id_of(Tag{3, 4, 5}));
}

TEST(Tag, SequentialSequencesSequentialIds) {
  // The replayer stamps consecutive sequence numbers; ids must track.
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_EQ(packet_id_of(Tag{1, 0, s}).lo, s);
  }
}

TEST(Tag, TrailerIdEqualsDecodedTagId) {
  // Random trailers, half of them with the magic: the two-load id equals
  // the id of the decoded tag, and a wrong magic reads as no id.
  Rng rng(41);
  int tagged = 0;
  for (int i = 0; i < 20000; ++i) {
    std::array<std::uint8_t, pktio::kTrailerBytes> t;
    for (auto& b : t) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    if (i % 2 == 0) {
      t[0] = static_cast<std::uint8_t>(kTagMagic >> 8);
      t[1] = static_cast<std::uint8_t>(kTagMagic & 0xff);
    }
    const auto tag = decode_tag(t);
    const auto id = trailer_packet_id(t.data());
    ASSERT_EQ(id.has_value(), tag.has_value()) << i;
    if (!tag) continue;
    ++tagged;
    EXPECT_EQ(*id, packet_id_of(*tag)) << i;
  }
  EXPECT_GE(tagged, 10000);
}

TEST(Tag, PacketIdIsTheTrailerBytes) {
  // hi is trailer bytes 0-7 and lo bytes 8-15, big-endian.
  const Tag tag{0x1234, 0x56789abc, 0x0102030405060708ULL};
  const auto t = encode_tag(tag);
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (int i = 0; i < 8; ++i) {
    hi = (hi << 8) | t[i];
    lo = (lo << 8) | t[8 + i];
  }
  EXPECT_EQ(packet_id_of(tag), (core::PacketId{hi, lo}));
  EXPECT_EQ(*trailer_packet_id(t.data()), (core::PacketId{hi, lo}));
}

}  // namespace
}  // namespace choir::trace
