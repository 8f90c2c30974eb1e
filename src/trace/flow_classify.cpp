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

  // One parse per record: its key and owning shard, computed once. Each
  // worker then classifies only the records of its own shard, in arrival
  // order, so tables and the (disjoint) per-packet slots it writes are
  // thread-private; the slots hold shard-local ids until the remap.
  constexpr std::uint32_t kUnclassified = 0xFFFFFFFFu;
  const std::size_t n = capture.size();
  flow::FlowShardSet set(shards);
  FlowClassification out;
  out.per_packet.assign(n, flow::kNoFlow);
  std::vector<std::uint32_t> shard_of(n, kUnclassified);
  {
    std::vector<flow::FlowKey> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!key_of_record(capture[i], &keys[i])) {
        ++out.unclassified;
        continue;
      }
      shard_of[i] = static_cast<std::uint32_t>(set.shard_of(keys[i]));
    }
    parallel_for_indexed(jobs, static_cast<std::size_t>(shards),
                         [&](std::size_t s) {
      flow::FlowTable& table = set.shard(static_cast<int>(s));
      for (std::size_t i = 0; i < n; ++i) {
        if (shard_of[i] != s) continue;
        const CaptureRecord& record = capture[i];
        out.per_packet[i] =
            table.classify(keys[i], record.wire_len, record.timestamp, i);
      }
    });
  }

  // Renumber shard-local ids into global first-arrival order — the exact
  // ids the sequential classifier assigns.
  const std::vector<flow::GlobalFlow> global = flow::merged_flows(set);
  out.table.reserve(global.size());
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
  for (std::size_t i = 0; i < n; ++i) {
    if (shard_of[i] == kUnclassified) continue;
    out.per_packet[i] = remap[shard_of[i]][out.per_packet[i]];
  }
  return out;
}

}  // namespace choir::trace
