#include "trace/partition.hpp"

#include <string>

#include "common/expect.hpp"
#include "trace/flow_classify.hpp"

namespace choir::trace {

PartitionResult partition_capture(const Capture& capture, int nodes) {
  CHOIR_EXPECT(nodes >= 1, "partition needs at least one node");
  PartitionResult result;
  result.nodes.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    result.nodes[static_cast<std::size_t>(n)].set_name(
        capture.name() + ".node" + std::to_string(n));
  }
  if (capture.empty()) return result;

  result.epoch = capture[0].timestamp;
  for (std::size_t i = 1; i < capture.size(); ++i) {
    result.epoch = std::min(result.epoch, capture[i].timestamp);
  }

  for (const CaptureRecord& record : capture.records()) {
    int node = 0;
    flow::FlowKey key;
    if (key_of_record(record, &key)) {
      node = flow::shard_of_key(key, nodes);
    } else {
      ++result.unclassified;
    }
    CaptureRecord rebased = record;
    rebased.timestamp -= result.epoch;
    result.nodes[static_cast<std::size_t>(node)].append(rebased);
  }
  return result;
}

}  // namespace choir::trace
