#include "core/lis.hpp"

#include <algorithm>

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

std::size_t gallop_lower_bound(std::span<const std::uint32_t> sorted,
                               std::uint32_t v) {
  const std::uint32_t* a = sorted.data();
  const std::size_t n = sorted.size();
  if (n == 0 || a[n - 1] < v) return n;
  // Invariant: a[hi] >= v. Each probe that still reads >= v moves hi down
  // by `step` and doubles it, so after k probes hi = n - 2^k.
  std::size_t hi = n - 1;
  std::size_t step = 1;
  while (step <= hi && a[hi - step] >= v) {
    hi -= step;
    step *= 2;
  }
  // The last probe read a[hi - step] < v (or ran past index 0): the
  // answer lies in (hi - step, hi], and a[hi] >= v closes the bracket.
  const std::size_t lo = step <= hi ? hi - step + 1 : 0;
  return lo + lower_bound_pos(a + lo, hi - lo, v);
}

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
  scratch.parent.clear();

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = values[i];
    const std::size_t pile = gallop_lower_bound(scratch.tail_vals, v);
    scratch.parent.push_back(pile > 0 ? scratch.tail_pos[pile - 1]
                                      : UINT32_MAX);
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

std::size_t lis_length(std::span<const std::uint32_t> values) {
  // std::lower_bound rather than the gallop: an independent oracle.
  std::vector<std::uint32_t> tails;
  tails.reserve(values.size());
  for (const std::uint32_t v : values) {
    const auto it = std::lower_bound(tails.begin(), tails.end(), v);
    if (it == tails.end()) {
      tails.push_back(v);
    } else {
      *it = v;
    }
  }
  return tails.size();
}

}  // namespace choir::core
