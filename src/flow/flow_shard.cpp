#include "flow/flow_shard.hpp"

#include <algorithm>
#include <tuple>

namespace choir::flow {

namespace {
auto key_tuple(const FlowKey& k) {
  return std::make_tuple(k.src_ip, k.dst_ip, k.src_port, k.dst_port,
                         k.protocol, k.stream);
}
}  // namespace

std::vector<GlobalFlow> merged_flows(const FlowShardSet& set) {
  std::vector<GlobalFlow> out;
  for (int s = 0; s < set.shards(); ++s) {
    const FlowTable& table = set.shard(s);
    for (FlowId id = 0; id < table.size(); ++id) {
      out.push_back(GlobalFlow{table.key_of(id), s, id, table.stats_of(id)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const GlobalFlow& a, const GlobalFlow& b) {
              if (a.stats.first_index != b.stats.first_index) {
                return a.stats.first_index < b.stats.first_index;
              }
              return key_tuple(a.key) < key_tuple(b.key);
            });
  return out;
}

}  // namespace choir::flow
