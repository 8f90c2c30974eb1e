// Top-K selection for divergence attribution.
//
// Each monitor window keeps its K largest moves and latency straddles.
// Both orders below are strict total orders — ties break on the B
// position, which is unique per match — so the K items a partial sort
// keeps, and their order, are exactly the first K of a full stable sort,
// at O(n log K) instead of O(n log n).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/edit_script.hpp"

namespace choir::monitor {

/// Moves by |displacement|, largest first; ties by B position.
inline bool move_before(const core::Move& x, const core::Move& y) {
  const auto ax = x.displacement < 0 ? -x.displacement : x.displacement;
  const auto ay = y.displacement < 0 ? -y.displacement : y.displacement;
  if (ax != ay) return ax > ay;
  return x.index_b < y.index_b;
}

/// Latency straddles by |l_B - l_A|, largest first; ties by B position.
inline bool latency_before(double delta_x, std::uint32_t index_b_x,
                           double delta_y, std::uint32_t index_b_y) {
  const double ax = std::abs(delta_x);
  const double ay = std::abs(delta_y);
  if (ax != ay) return ax > ay;
  return index_b_x < index_b_y;
}

/// Keep the first `k` of `items` under the strict total order `before`,
/// sorted.
template <typename T, typename Before>
void keep_top(std::vector<T>& items, std::size_t k, Before before) {
  const auto kept = static_cast<std::ptrdiff_t>(std::min(k, items.size()));
  std::partial_sort(items.begin(), items.begin() + kept, items.end(), before);
  items.resize(static_cast<std::size_t>(kept));
}

}  // namespace choir::monitor
