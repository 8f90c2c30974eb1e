#include "flow/flow_demux.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace choir::flow {

void DemuxResult::load_rebased(const core::Trial& trial, FlowId f,
                               core::Trial& out) const {
  out.clear();
  for (const std::uint32_t i : flow(f)) out.push_back(trial[i]);
  out.rebase_to_zero();
}

DemuxResult demux_trial(const core::Trial& trial, std::span<const FlowId> ids,
                        std::size_t flow_count) {
  CHOIR_EXPECT(trial.size() == ids.size(),
               "flow id vector must parallel the trial");
  DemuxResult result;
  result.offsets.assign(flow_count + 1, 0);

  // Pass 1: per-flow sizes, shifted by one so the prefix sum below turns
  // them into start offsets.
  for (const FlowId id : ids) {
    if (id == kNoFlow) {
      ++result.unclassified;
      continue;
    }
    CHOIR_EXPECT(id < flow_count, "flow id out of range");
    ++result.offsets[id + 1];
  }
  for (std::size_t f = 0; f < flow_count; ++f) {
    result.offsets[f + 1] += result.offsets[f];
  }

  // Pass 2: stable scatter in arrival order, using offsets[f] as flow
  // f's cursor. Afterwards offsets[f] holds flow f's end, so one shift
  // right restores the starts.
  result.positions.resize(result.offsets.back());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const FlowId id = ids[i];
    if (id == kNoFlow) continue;
    result.positions[result.offsets[id]++] = static_cast<std::uint32_t>(i);
  }
  std::move_backward(result.offsets.begin(), result.offsets.end() - 1,
                     result.offsets.end());
  result.offsets[0] = 0;
  return result;
}

}  // namespace choir::flow
