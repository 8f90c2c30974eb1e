#include "core/lis.hpp"

namespace choir::core {

namespace {

/// First index i in [0, n) with a[i] >= v, over a contiguous sorted
/// array. The halving form compiles to conditional moves — no branch
/// mispredicts on the random probe sequence an LIS produces.
std::size_t lower_bound_pos(const std::uint32_t* a, std::size_t n,
                            std::uint32_t v) {
  std::size_t base = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (a[base + half - 1] < v) ? half : 0;
    n -= half;
  }
  return base + ((n == 1 && a[base] < v) ? 1 : 0);
}

template <typename Vec>
void reserve_tracked(Vec& v, std::size_t n, std::uint64_t* grows) {
  if (v.capacity() < n) {
    ++*grows;
    v.reserve(n);
  }
}

}  // namespace

void longest_increasing_subsequence(std::span<const std::uint32_t> values,
                                    LisScratch& scratch,
                                    std::vector<std::uint32_t>* out) {
  const std::size_t n = values.size();
  out->clear();
  if (n == 0) return;

  reserve_tracked(scratch.tail_vals, n, &scratch.grows);
  reserve_tracked(scratch.tail_pos, n, &scratch.grows);
  reserve_tracked(scratch.parent, n, &scratch.grows);
  scratch.tail_vals.clear();
  scratch.tail_pos.clear();
  scratch.parent.resize(n);

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = values[i];
    // A value above every pile tail starts a new pile. lower_bound_pos
    // returns tail_vals.size() exactly then, so skipping the search
    // changes no output, and an in-order run costs O(1) per value.
    const std::size_t piles = scratch.tail_vals.size();
    const std::size_t pile =
        piles == 0 || scratch.tail_vals.back() < v
            ? piles
            : lower_bound_pos(scratch.tail_vals.data(), piles, v);
    scratch.parent[i] =
        pile > 0 ? scratch.tail_pos[pile - 1] : UINT32_MAX;
    if (pile == scratch.tail_vals.size()) {
      scratch.tail_vals.push_back(v);
      scratch.tail_pos.push_back(i);
    } else {
      scratch.tail_vals[pile] = v;
      scratch.tail_pos[pile] = i;
    }
  }

  // Reserve to n (not the LIS length): capacity then depends only on
  // the input size, so equal-size comparisons never regrow the output
  // buffer just because one LIS came out longer than the last.
  const std::size_t len = scratch.tail_pos.size();
  reserve_tracked(*out, n, &scratch.grows);
  out->resize(len);
  std::uint32_t cur = scratch.tail_pos.back();
  for (std::size_t k = len; k-- > 0;) {
    (*out)[k] = cur;
    cur = scratch.parent[cur];
  }
}

std::vector<std::uint32_t> longest_increasing_subsequence(
    std::span<const std::uint32_t> values) {
  LisScratch scratch;
  std::vector<std::uint32_t> out;
  longest_increasing_subsequence(values, scratch, &out);
  return out;
}

std::size_t lis_length(std::span<const std::uint32_t> values) {
  std::vector<std::uint32_t> tails;
  tails.reserve(values.size());
  for (const std::uint32_t v : values) {
    const std::size_t pile = lower_bound_pos(tails.data(), tails.size(), v);
    if (pile == tails.size()) {
      tails.push_back(v);
    } else {
      tails[pile] = v;
    }
  }
  return tails.size();
}

}  // namespace choir::core
