#include "trace/flow_classify.hpp"

#include <algorithm>

#include "common/task_pool.hpp"
#include "flow/flow_shard.hpp"
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
    out.per_packet[i] =
        out.table.classify(key, record.wire_len, record.timestamp, i);
  }
  return out;
}

FlowClassification classify_capture_sharded(const Capture& capture,
                                            int shards, int jobs) {
  if (shards <= 1) return classify_capture(capture);

  // Each worker owns one shard: it scans the whole capture but touches
  // only the keys hashing to its shard, so tables and the (disjoint)
  // per-packet slots it writes are thread-private. Unclassified records
  // are counted once, by shard 0.
  flow::FlowShardSet set(shards);
  std::vector<flow::FlowId> local(capture.size(), flow::kNoFlow);
  std::vector<std::uint64_t> unclassified(
      static_cast<std::size_t>(shards), 0);
  parallel_for_indexed(jobs, static_cast<std::size_t>(shards),
                       [&](std::size_t s) {
    flow::FlowTable& table = set.shard(static_cast<int>(s));
    flow::FlowKey key;
    for (std::size_t i = 0; i < capture.size(); ++i) {
      const CaptureRecord& record = capture[i];
      if (!key_of_record(record, &key)) {
        if (s == 0) ++unclassified[0];
        continue;
      }
      if (set.shard_of(key) != static_cast<int>(s)) continue;
      local[i] = table.classify(key, record.wire_len, record.timestamp, i);
    }
  });

  // Renumber shard-local ids into global first-arrival order — the exact
  // ids the sequential classifier assigns.
  const std::vector<flow::GlobalFlow> global = flow::merged_flows(set);
  FlowClassification out;
  out.table.reserve(global.size());
  out.unclassified = unclassified[0];
  // global id of (shard, local id):
  std::vector<std::vector<flow::FlowId>> remap(
      static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    remap[static_cast<std::size_t>(s)].assign(set.shard(s).size(),
                                              flow::kNoFlow);
  }
  flow::FlowId gid = 0;
  for (const flow::GlobalFlow& gf : global) {
    // Keys in the merged view are unique, so merge_entry always inserts,
    // assigning dense ids in first-arrival order with the shard's true
    // counters carried over verbatim.
    out.table.merge_entry(gf.key, gf.stats);
    remap[static_cast<std::size_t>(gf.shard)][gf.local_id] = gid++;
  }
  out.per_packet.assign(capture.size(), flow::kNoFlow);
  for (std::size_t i = 0; i < capture.size(); ++i) {
    if (local[i] == flow::kNoFlow) continue;
    // Which shard classified packet i is re-derivable from the record,
    // but the local id alone is ambiguous across shards; recover the
    // shard from the key hash.
    flow::FlowKey key;
    key_of_record(capture[i], &key);
    out.per_packet[i] =
        remap[static_cast<std::size_t>(set.shard_of(key))][local[i]];
  }
  return out;
}

}  // namespace choir::trace
