#include "monitor/incremental_lis.hpp"

#include <algorithm>

namespace choir::monitor {

void IncrementalLis::append(std::uint32_t value) {
  // In-order arrivals extend the longest pile: the binary search would
  // land on end() anyway.
  if (tails_.empty() || tails_.back() < value) {
    tails_.push_back(value);
    ++appended_;
    return;
  }
  auto it = std::lower_bound(tails_.begin(), tails_.end(), value);
  if (it == tails_.end()) {
    tails_.push_back(value);
  } else {
    *it = value;
  }
  ++appended_;
}

}  // namespace choir::monitor
