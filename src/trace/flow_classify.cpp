#include "trace/flow_classify.hpp"

#include <algorithm>

#include "pktio/headers.hpp"
#include "trace/tag.hpp"

namespace choir::trace {

bool key_of_record(const CaptureRecord& record, flow::FlowKey* key) {
  pktio::Frame frame;
  frame.wire_len = record.wire_len;
  frame.header_len = record.header_len;
  frame.header = record.header;
  const pktio::ParsedHeaders parsed = pktio::parse_eth_ipv4_udp(frame);
  if (!parsed.valid) return false;
  std::uint32_t stream = 0;
  if (record.has_trailer) {
    if (const auto tag = decode_tag(record.trailer)) stream = tag->stream;
  }
  *key = flow::key_of(parsed.flow, stream);
  return true;
}

FlowClassification classify_capture(const Capture& capture) {
  FlowClassification out;
  out.table.reserve(std::min<std::size_t>(capture.size(), 1024));
  out.per_packet.assign(capture.size(), flow::kNoFlow);
  flow::FlowKey key;
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const CaptureRecord& record = capture[i];
    if (!key_of_record(record, &key)) {
      ++out.unclassified;
      continue;
    }
    out.per_packet[i] = out.table.classify(key);
  }
  return out;
}

}  // namespace choir::trace
