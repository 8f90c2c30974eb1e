// Differential tests of core::PacketIdIndex against FlatIndex<PacketId>,
// the plain hash table it replaced: for every input sequence both must
// hand out the same dense ids with the same `fresh` flags, and answer
// find() identically for every inserted id and for absent neighbours.
// The inputs cover both sides of the lane/spill split: in-order,
// reversed and locally shuffled runs, sparse strides, many senders,
// untagged tokens, random 128-bit ids, `lo` wrapping past 2^64, ids that
// spill before a lane grows over them, and one index reused across
// clear/refill cycles.
#include "core/packet_id_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_index.hpp"
#include "common/rng.hpp"

namespace choir::core {
namespace {

using Reference = FlatIndex<PacketId, PacketIdHash>;
using Ids = std::vector<PacketId>;

constexpr std::uint64_t kTagged = 0x5a5a000100000000ULL;  // magic|replayer
constexpr std::uint64_t kUntagged = 0x7261772d74616773ULL;

/// Insert `ids` into `index` (cleared first) and a fresh reference, then
/// compare every answer. `hint` > 0 is passed to both reserve() calls.
void expect_same(PacketIdIndex& index, const Ids& ids, std::size_t hint) {
  Reference ref;
  index.clear();
  if (hint > 0) {
    index.reserve(hint);
    ref.reserve(hint);
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto got = index.insert(ids[k]);
    const auto want = ref.insert(ids[k]);
    ASSERT_EQ(got.id, want.id) << "insert #" << k;
    ASSERT_EQ(got.fresh, want.fresh) << "insert #" << k;
  }
  ASSERT_EQ(index.size(), ref.size());
  for (const PacketId id : ids) {
    for (const PacketId probe :
         {id, PacketId{id.hi, id.lo + 1}, PacketId{id.hi, id.lo - 1},
          PacketId{id.hi, id.lo + 4096}, PacketId{id.hi ^ 1, id.lo}}) {
      ASSERT_EQ(index.find(probe), ref.find(probe))
          << "find " << probe.hi << ":" << probe.lo;
    }
  }
}

/// Every hint a caller may pass: none, exact, too small, too large.
void expect_same_any_hint(const Ids& ids) {
  PacketIdIndex index;
  for (const std::size_t hint :
       {std::size_t{0}, ids.size(), ids.size() / 3, 4 * ids.size() + 1}) {
    SCOPED_TRACE(hint);
    expect_same(index, ids, hint);
  }
}

Ids run(std::uint64_t hi, std::uint64_t first, std::size_t n,
        std::uint64_t stride = 1) {
  Ids ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back({hi, first + i * stride});
  return ids;
}

/// Shuffle within consecutive windows of `window` ids.
void shuffle_windows(Ids& ids, std::size_t window, Rng& rng) {
  for (std::size_t start = 0; start < ids.size(); start += window) {
    const std::size_t end = std::min(ids.size(), start + window);
    for (std::size_t i = end - 1; i > start; --i) {
      std::swap(ids[i], ids[start + rng.uniform_u64(i - start + 1)]);
    }
  }
}

/// Repeat a random fifth of the ids later in the sequence.
void add_repeats(Ids& ids, Rng& rng) {
  const std::size_t n = ids.size();
  for (std::size_t k = 0; k < n / 5; ++k) {
    ids.push_back(ids[rng.uniform_u64(n)]);
  }
  shuffle_windows(ids, 32, rng);
}

TEST(PacketIdIndex, InOrderRunMatchesFlatIndex) {
  expect_same_any_hint(run(kTagged, 0, 5000));
  expect_same_any_hint(run(kTagged, 123456789, 5000));
}

TEST(PacketIdIndex, ReversedRunMatchesFlatIndex) {
  Ids ids = run(kTagged, 0, 3000);
  std::reverse(ids.begin(), ids.end());
  expect_same_any_hint(ids);
}

TEST(PacketIdIndex, WindowShuffledRunsMatchFlatIndex) {
  Rng rng(3);
  for (const std::size_t window : {2, 3, 8, 64, 1000}) {
    SCOPED_TRACE(window);
    Ids ids = run(kTagged, 0, 4000);
    shuffle_windows(ids, window, rng);
    expect_same_any_hint(ids);
  }
}

TEST(PacketIdIndex, InterleavedSendersWithRepeatsMatchFlatIndex) {
  // Two replayers interleaved, as a two-replayer capture is, plus
  // repeated ids so `fresh` is exercised on both paths.
  Rng rng(4);
  Ids ids;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    ids.push_back({kTagged, i});
    ids.push_back({kTagged + (std::uint64_t{1} << 32), i});
  }
  add_repeats(ids, rng);
  expect_same_any_hint(ids);
}

TEST(PacketIdIndex, SparseStrideRunsMatchFlatIndex) {
  expect_same_any_hint(run(kTagged, 17, 2000, 4096));
  // Each flow of a many-flow capture: a sparse subset of one sequence,
  // with the odd pair of neighbours.
  Rng rng(5);
  Ids ids;
  for (std::uint64_t lo = 0; ids.size() < 3000; lo += 1 + rng.uniform_u64(9)) {
    ids.push_back({kTagged, lo});
  }
  expect_same_any_hint(ids);
}

TEST(PacketIdIndex, ThousandsOfSendersMatchFlatIndex) {
  Rng rng(6);
  Ids blocks;  // each sender's run contiguous
  Ids mixed;   // every sender's next id in turn
  for (std::uint64_t s = 0; s < 1200; ++s) {
    const Ids r = run(kTagged + (s << 32), s * 7, 5 + s % 11);
    blocks.insert(blocks.end(), r.begin(), r.end());
  }
  for (std::uint64_t i = 0; i < 16; ++i) {
    for (std::uint64_t s = 0; s < 1200; ++s) {
      if (i < 5 + s % 11) mixed.push_back({kTagged + (s << 32), s * 7 + i});
    }
  }
  expect_same_any_hint(blocks);
  expect_same_any_hint(mixed);
  add_repeats(mixed, rng);
  expect_same_any_hint(mixed);
}

TEST(PacketIdIndex, SendersPastTheStagingOpenLanesFromTheSpillTable) {
  // 40 interleaved senders overflow the staged spill with their first
  // ids; their lanes then open from the spill table, and all but the
  // senders whose filter bucket another sender shares keep their ids in
  // lanes.
  Rng rng(10);
  Ids ids;
  for (std::uint64_t i = 0; i < 200; ++i) {
    for (std::uint64_t s = 0; s < 40; ++s) {
      ids.push_back({kTagged + (s << 32), 1000 * s + i});
    }
  }
  PacketIdIndex index;
  expect_same(index, ids, ids.size());
  EXPECT_LT(index.spilled(), ids.size() / 10);
  shuffle_windows(ids, 50, rng);
  add_repeats(ids, rng);
  expect_same_any_hint(ids);
}

TEST(PacketIdIndex, PlainFillsMatchFlatIndex) {
  // Hints of 1..31 ids make a fill plain: the spill table takes every
  // id. Dense, sparse and repeated ids, and fills that outgrow the hint.
  Rng rng(12);
  PacketIdIndex index;
  for (std::size_t hint = 1; hint <= 31; ++hint) {
    SCOPED_TRACE(hint);
    Ids dense = run(kTagged, 5, hint);
    expect_same(index, dense, hint);
    EXPECT_EQ(index.spilled(), hint);
    Ids sparse = run(kTagged, 9, hint, 7);
    add_repeats(sparse, rng);
    expect_same(index, sparse, hint);
    expect_same(index, run(kTagged, 0, 3 * hint), hint);
  }
}

TEST(PacketIdIndex, CensusCountsEachFillOnce) {
  // A fill is counted when it ends, by clear() or destruction; a
  // moved-from index has no fill left to count.
  const PacketIdIndex::Census before = PacketIdIndex::census();
  Rng rng(11);
  {
    PacketIdIndex index;
    for (std::uint64_t i = 0; i < 100; ++i) index.insert({kTagged, i});
    for (int i = 0; i < 5; ++i) {
      index.insert({rng.next_u64(), rng.next_u64()});
    }
    EXPECT_EQ(index.spilled(), 5u);
    index.clear();
    for (std::uint64_t i = 0; i < 30; ++i) index.insert({kTagged, i});
    PacketIdIndex moved = std::move(index);
    EXPECT_EQ(moved.size(), 30u);
  }
  const PacketIdIndex::Census after = PacketIdIndex::census();
  EXPECT_EQ(after.lane_ids - before.lane_ids, 130u);
  EXPECT_EQ(after.spilled_ids - before.spilled_ids, 5u);
}

TEST(PacketIdIndex, UntaggedTokensAndRandomIdsMatchFlatIndex) {
  Rng rng(7);
  Ids tokens;
  for (int i = 0; i < 3000; ++i) tokens.push_back({kUntagged, rng.next_u64()});
  expect_same_any_hint(tokens);
  Ids random;
  for (int i = 0; i < 3000; ++i) {
    random.push_back({rng.next_u64(), rng.next_u64()});
  }
  add_repeats(random, rng);
  expect_same_any_hint(random);
  // A tagged run with untagged noise interleaved, and random ids before
  // it that overflow the staged spill ahead of any lane.
  Ids mixed = random;
  mixed.resize(40);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    mixed.push_back({kTagged, i});
    if (i % 7 == 0) mixed.push_back({kUntagged, rng.next_u64()});
  }
  expect_same_any_hint(mixed);
}

TEST(PacketIdIndex, LoWrapsPast2To64) {
  // The lane base sits just below 2^64 and the run wraps through 0.
  Rng rng(8);
  Ids ids = run(kTagged, ~std::uint64_t{0} - 100, 300);
  expect_same_any_hint(ids);
  shuffle_windows(ids, 16, rng);
  expect_same_any_hint(ids);
  // A wrapped id staged before the run: a lane opened near 2^64 reaches
  // it through the wrap, so none may open while it is staged.
  Ids ahead = {{kTagged, 2}};
  for (std::uint64_t lo = ~std::uint64_t{0} - 2; lo != 6; ++lo) {
    ahead.push_back({kTagged, lo});
  }
  expect_same_any_hint(ahead);
  // Ids far below a base near 0, seen as huge offsets.
  Ids low = run(kTagged, 5, 50);
  for (std::uint64_t i = 0; i < 20; ++i) low.push_back({kTagged, ~i});
  expect_same_any_hint(low);
}

TEST(PacketIdIndex, SpilledIdsLaterInsideALaneWindow) {
  // 10 is too far past a 3-id lane and spills; 3..9 then widen the lane
  // over it, and its repeat must still resolve to the spilled id.
  Ids ids = run(kTagged, 0, 3);
  ids.push_back({kTagged, 10});
  for (std::uint64_t lo = 3; lo < 20; ++lo) ids.push_back({kTagged, lo});
  expect_same_any_hint(ids);
  // 7 arrives first; a lane opened at 3 could reach it, so none opens
  // until the run has passed it.
  Ids early = {{kTagged, 7}, {kTagged, 3}, {kTagged, 4}, {kTagged, 5},
               {kTagged, 6}, {kTagged, 8}, {kTagged, 9}, {kTagged, 7}};
  for (std::uint64_t lo = 10; lo < 40; ++lo) early.push_back({kTagged, lo});
  expect_same_any_hint(early);
  // Ids below the base, before and after the lane opens.
  Ids below = {{kTagged, 50}, {kTagged, 40}, {kTagged, 51}, {kTagged, 52},
               {kTagged, 30}, {kTagged, 40}, {kTagged, 49}, {kTagged, 53}};
  expect_same_any_hint(below);
}

TEST(PacketIdIndex, ClearRefillCyclesReuseOneIndex) {
  // One index refilled with alternating shapes, as a reused comparison
  // arena is; storage growth stops once it has seen the largest input.
  Rng rng(9);
  std::vector<Ids> shapes;
  shapes.push_back(run(kTagged, 0, 4000));
  shapes.push_back(run(kTagged, 9, 1000, 4096));
  Ids random;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    random.push_back({rng.next_u64(), i});
  }
  shapes.push_back(random);
  Ids dual;
  for (std::uint64_t i = 0; i < 1500; ++i) {
    dual.push_back({kTagged, i});
    dual.push_back({kTagged + 1, i + 77});
  }
  shapes.push_back(dual);
  PacketIdIndex index;
  std::uint64_t grows_after_first_round = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (const Ids& ids : shapes) {
      SCOPED_TRACE(cycle);
      expect_same(index, ids, ids.size());
    }
    if (cycle == 0) grows_after_first_round = index.grows();
  }
  EXPECT_EQ(index.grows(), grows_after_first_round);
}

}  // namespace
}  // namespace choir::core
