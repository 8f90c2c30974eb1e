// Flow classification of captures and capture records.
//
// Bridges the trace layer (CaptureRecord: raw header bytes + optional
// evaluation trailer) to the flow layer (FlowKey / FlowTable): the key's
// 5-tuple is parsed from the recorded Ethernet+IPv4+UDP header stack and
// its SSRC-style stream id comes from the trailer tag when one is
// present. Records without a parseable UDP stack classify as kNoFlow.
//
// classify_capture() is the one offline classifier: each run's capture
// is classified once, at its round close, on the experiment's thread.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow_table.hpp"
#include "trace/capture.hpp"

namespace choir::trace {

struct FlowClassification {
  flow::FlowTable table;                 ///< dense ids in arrival order
  std::vector<flow::FlowId> per_packet;  ///< parallel to the capture
  std::uint64_t unclassified = 0;        ///< records without a UDP stack
};

/// Key of one record; false when the header stack does not parse.
bool key_of_record(const CaptureRecord& record, flow::FlowKey* key);

/// Classify every record of `capture` in arrival order.
FlowClassification classify_capture(const Capture& capture);

/// classify_capture(capture); `shards` and `jobs` have no effect. Kept
/// for the benchmark harness, which calls it (ROADMAP "Mend perfbench").
inline FlowClassification classify_capture_sharded(const Capture& capture,
                                                   int /*shards*/,
                                                   int /*jobs*/) {
  return classify_capture(capture);
}

}  // namespace choir::trace
