// Flow classification of captures and capture records.
//
// Bridges the trace layer (CaptureRecord: raw header bytes + optional
// evaluation trailer) to the flow layer (FlowKey / FlowTable): the key's
// 5-tuple is parsed from the recorded Ethernet+IPv4+UDP header stack and
// its SSRC-style stream id comes from the trailer tag when one is
// present. Records without a parseable UDP stack classify as kNoFlow.
//
// classify_capture() is the sequential reference; the sharded variant
// parses each record once (key and owning shard), fans the shards across
// the task pool — each worker classifies only its own shard's records, so
// no table is shared — and then renumbers the shard-local ids into the
// global first-arrival order. The results are guaranteed identical (the
// unit tests diff them), which is what lets the 100k-flow bench keep its
// byte-identity gate at any --jobs value.
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

/// Same result, computed by fanning `shards` key partitions across the
/// task pool (`jobs` as everywhere: 0 = auto, 1 = sequential).
FlowClassification classify_capture_sharded(const Capture& capture,
                                            int shards, int jobs);

}  // namespace choir::trace
