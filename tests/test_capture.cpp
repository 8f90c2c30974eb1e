#include "trace/capture.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/metrics.hpp"
#include "trace/tag.hpp"

namespace choir::trace {
namespace {

/// Oracle: true if no id of `trial` occurs twice.
bool ids_unique(const core::Trial& trial) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const core::TrialPacket& p : trial.packets()) {
    if (!seen.emplace(p.id.hi, p.id.lo).second) return false;
  }
  return true;
}

CaptureRecord tagged_record(std::uint16_t replayer, std::uint64_t seq,
                            Ns ts) {
  pktio::Frame frame;
  frame.wire_len = 1400;
  stamp(frame, Tag{replayer, 0, seq});
  return CaptureRecord::from_frame(frame, ts);
}

TEST(Capture, FromFrameSnapshotsEverything) {
  pktio::Frame frame;
  frame.wire_len = 1400;
  frame.header_len = 42;
  frame.header[0] = 0xAB;
  frame.payload_token = 777;
  stamp(frame, Tag{1, 2, 3});
  const CaptureRecord r = CaptureRecord::from_frame(frame, 999);
  EXPECT_EQ(r.timestamp, 999);
  EXPECT_EQ(r.wire_len, 1400u);
  EXPECT_EQ(r.header_len, 42u);
  EXPECT_EQ(r.header[0], 0xAB);
  EXPECT_EQ(r.payload_token, 777u);
  EXPECT_TRUE(r.has_trailer);
}

TEST(Capture, ToTrialUsesTagIdentity) {
  Capture cap("t");
  cap.append(tagged_record(1, 10, 100));
  cap.append(tagged_record(1, 11, 380));
  const core::Trial trial = cap.to_trial();
  ASSERT_EQ(trial.size(), 2u);
  EXPECT_EQ(trial[0].id, packet_id_of(Tag{1, 0, 10}));
  EXPECT_EQ(trial[0].time, 100);
  EXPECT_EQ(trial[1].time, 380);
}

TEST(Capture, SameTagsAcrossCapturesMatch) {
  // Replays re-send the same tagged packets; the trial identities of two
  // captures of the same replay must intersect fully.
  Capture a("a"), b("b");
  for (std::uint64_t s = 0; s < 50; ++s) {
    a.append(tagged_record(1, s, 100 * static_cast<Ns>(s)));
    b.append(tagged_record(1, s, 100 * static_cast<Ns>(s) + 7));
  }
  const auto r = core::compare_trials(a.to_trial(), b.to_trial());
  EXPECT_EQ(r.common, 50u);
  EXPECT_EQ(r.metrics.uniqueness, 0.0);
}

TEST(Capture, UntaggedPacketsIdentifiedByPayloadToken) {
  pktio::Frame frame;
  frame.wire_len = 500;
  frame.payload_token = 42;
  Capture cap("t");
  cap.append(CaptureRecord::from_frame(frame, 10));
  frame.payload_token = 43;
  cap.append(CaptureRecord::from_frame(frame, 20));
  const auto trial = cap.to_trial();
  EXPECT_NE(trial[0].id, trial[1].id);
}

TEST(Capture, DuplicateUntaggedPacketsGetOccurrences) {
  pktio::Frame frame;
  frame.wire_len = 500;
  frame.payload_token = 42;
  Capture cap("t");
  cap.append(CaptureRecord::from_frame(frame, 10));
  cap.append(CaptureRecord::from_frame(frame, 20));
  const auto trial = cap.to_trial();
  EXPECT_TRUE(ids_unique(trial));
}

TEST(Capture, NameAndClear) {
  Capture cap("first");
  EXPECT_EQ(cap.name(), "first");
  cap.set_name("second");
  EXPECT_EQ(cap.name(), "second");
  cap.append(tagged_record(1, 1, 1));
  EXPECT_FALSE(cap.empty());
  cap.clear();
  EXPECT_TRUE(cap.empty());
}

TEST(Capture, EmptyToTrial) {
  EXPECT_TRUE(Capture("e").to_trial().empty());
}

}  // namespace
}  // namespace choir::trace
