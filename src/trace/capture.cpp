#include "trace/capture.hpp"

#include "trace/tag.hpp"

namespace choir::trace {

CaptureRecord CaptureRecord::from_frame(const pktio::Frame& frame,
                                        Ns timestamp) {
  CaptureRecord r;
  r.timestamp = timestamp;
  r.wire_len = frame.wire_len;
  r.header_len = frame.header_len;
  r.header = frame.header;
  r.has_trailer = frame.has_trailer;
  r.trailer = frame.trailer;
  r.payload_token = frame.payload_token;
  return r;
}

core::PacketId CaptureRecord::packet_id() const {
  if (has_trailer) {
    if (const auto tag = decode_tag(trailer)) return packet_id_of(*tag);
  }
  return untagged_packet_id(payload_token);
}

core::Trial Capture::to_trial() const {
  core::Trial trial;
  trial.reserve(records_.size());
  for (const CaptureRecord& r : records_) {
    trial.push_back(core::TrialPacket{r.packet_id(), r.timestamp});
  }
  trial.make_occurrences_unique();
  return trial;
}

}  // namespace choir::trace
