#include "core/trial.hpp"

namespace choir::core {

void Trial::shift_times(Ns delta) {
  if (delta == 0) return;
  for (auto& p : packets_) p.time += delta;
}

void Trial::rebase_to_zero() {
  if (packets_.empty()) return;
  shift_times(-first_time());
}

std::size_t Trial::make_occurrences_unique() {
  PacketIdIndex index;
  index.reserve(packets_.size());
  // Occurrences so far, by dense id of the raw id. Until the first repeat
  // every id has occurred once, so the counts start there; a trial of
  // distinct ids never allocates them.
  std::vector<std::uint32_t> counts;
  std::size_t rewritten = 0;
  for (auto& p : packets_) {
    const auto [id, fresh] = index.insert(p.id);
    if (fresh) {
      if (!counts.empty()) counts.push_back(1);
      continue;
    }
    if (counts.empty()) {
      counts.reserve(packets_.size());
      counts.assign(index.size(), 1);
    }
    p.id = occurrence_id(p.id, counts[id]++);
    ++rewritten;
  }
  return rewritten;
}

}  // namespace choir::core
