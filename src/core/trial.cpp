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
  std::vector<std::uint32_t> counts;  // by dense id of the raw id
  counts.reserve(packets_.size());
  std::size_t rewritten = 0;
  for (auto& p : packets_) {
    const auto [id, fresh] = index.insert(p.id);
    if (fresh) counts.push_back(0);
    const std::uint32_t occurrence = counts[id]++;
    if (occurrence > 0) {
      p.id = occurrence_id(p.id, occurrence);
      ++rewritten;
    }
  }
  return rewritten;
}

}  // namespace choir::core
