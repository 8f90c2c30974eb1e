// Unit tests for the streaming consistency monitor: the incremental LIS
// and IdTable building blocks, closed-form windowed-κ checks on
// synthetic streams, the full-trial-window ≡ offline Eq. 5 equivalence,
// and divergence attribution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/lis.hpp"
#include "core/metrics.hpp"
#include "monitor/monitor.hpp"

namespace choir::monitor {
namespace {

core::Trial make_trial(const std::vector<std::uint64_t>& ids,
                       const std::vector<Ns>& times) {
  core::Trial t;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    t.push_back(core::TrialPacket{core::PacketId{0, ids[i]}, times[i]});
  }
  return t;
}

core::Trial cbr_trial(std::size_t n, Ns gap, Ns start = 0) {
  core::Trial t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(core::TrialPacket{core::PacketId{0, i + 1},
                                  start + static_cast<Ns>(i) * gap});
  }
  return t;
}

/// Feed every packet of `b` into a new stream named `name`, without flow
/// ids. The first stream a monitor sees is its reference trial A, so
/// tests feed A first (named "reference") and then the monitored trials.
void feed(StreamMonitor& mon, const core::Trial& b,
          const std::string& name = "b") {
  mon.begin_stream(name);
  for (const auto& p : b.packets()) mon.observe(p.id, p.time, flow::kNoFlow);
}

MonitorConfig offline_config(std::size_t window_packets = 1u << 20,
                             std::size_t top_k = 16) {
  MonitorConfig cfg;
  cfg.window_packets = window_packets;
  cfg.top_k = top_k;
  return cfg;
}

/// Deterministic jittered copy of `a`: every `drop_every`-th packet is
/// dropped, every `swap_every`-th pair swapped, and times perturbed by a
/// fixed LCG — a realistic imperfect replay with a known seed.
core::Trial perturb(const core::Trial& a, std::uint64_t seed,
                    std::size_t drop_every = 97, std::size_t swap_every = 13,
                    Ns jitter = 40) {
  std::vector<core::TrialPacket> b;
  std::uint64_t s = seed;
  auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (drop_every > 0 && i % drop_every == drop_every - 1) continue;
    core::TrialPacket p = a[i];
    p.time += static_cast<Ns>(next() % (2 * jitter + 1)) - jitter;
    b.push_back(p);
  }
  for (std::size_t i = 0; i + 1 < b.size(); i += swap_every) {
    std::swap(b[i], b[i + 1]);
  }
  // Restore monotone non-decreasing times (arrival order defines B).
  for (std::size_t i = 1; i < b.size(); ++i) {
    if (b[i].time < b[i - 1].time) b[i].time = b[i - 1].time;
  }
  return core::Trial(std::move(b));
}

// ---- IncrementalLis ----------------------------------------------------

TEST(IncrementalLis, MatchesOfflineAfterEveryAppend) {
  // LCG-generated sequence with repeats; length() must equal
  // core::lis_length of the prefix after every single append.
  std::uint64_t s = 12345;
  std::vector<std::uint32_t> prefix;
  IncrementalLis lis;
  for (int i = 0; i < 300; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = static_cast<std::uint32_t>((s >> 33) % 64);
    prefix.push_back(v);
    lis.append(v);
    ASSERT_EQ(lis.length(), core::lis_length(prefix)) << "after " << i;
  }
  EXPECT_EQ(lis.size(), prefix.size());
}

TEST(IncrementalLis, AdversarialShapes) {
  {
    IncrementalLis lis;  // strictly increasing: LIS == n
    for (std::uint32_t v = 0; v < 100; ++v) lis.append(v);
    EXPECT_EQ(lis.length(), 100u);
  }
  {
    IncrementalLis lis;  // strictly decreasing: LIS == 1
    for (std::uint32_t v = 100; v-- > 0;) lis.append(v);
    EXPECT_EQ(lis.length(), 1u);
  }
  {
    IncrementalLis lis;  // all equal: strictly increasing -> LIS == 1
    for (int i = 0; i < 50; ++i) lis.append(7);
    EXPECT_EQ(lis.length(), 1u);
    lis.clear();
    EXPECT_EQ(lis.length(), 0u);
    EXPECT_EQ(lis.size(), 0u);
  }
}

// ---- IdTable -----------------------------------------------------------

TEST(IdTable, LookupAndOccurrenceCounting) {
  IdTable table;
  const core::Trial ref = cbr_trial(8, 100);
  table.rebuild(ref);
  EXPECT_EQ(table.size(), 8u);

  // Known ids resolve to their reference position with occurrence 0,
  // then count up on repeats.
  const core::PacketId id3{0, 4};  // ref position 3
  IdTable::Hit h = table.observe(id3);
  EXPECT_EQ(h.ref_index, 3u);
  EXPECT_EQ(h.occurrence, 0u);
  h = table.observe(id3);
  EXPECT_EQ(h.ref_index, 3u);
  EXPECT_EQ(h.occurrence, 1u);

  // Unknown ids insert a counting slot but resolve to kNoRef.
  const core::PacketId alien{7, 7};
  h = table.observe(alien);
  EXPECT_EQ(h.ref_index, IdTable::kNoRef);
  EXPECT_EQ(h.occurrence, 0u);
  EXPECT_EQ(table.observe(alien).occurrence, 1u);

  EXPECT_EQ(table.ref_index_of(id3), 3u);
  EXPECT_EQ(table.ref_index_of(core::PacketId{9, 9}), IdTable::kNoRef);
}

TEST(IdTable, EpochBumpResetsOccurrencesInO1) {
  IdTable table;
  table.rebuild(cbr_trial(4, 10));
  const core::PacketId id{0, 2};
  EXPECT_EQ(table.observe(id).occurrence, 0u);
  EXPECT_EQ(table.observe(id).occurrence, 1u);
  table.new_stream();
  EXPECT_EQ(table.observe(id).occurrence, 0u);  // counter reads zero again
  EXPECT_EQ(table.observe(id).ref_index, 1u);   // ref mapping survives
}

TEST(IdTable, GrowthPreservesReferenceMappings) {
  IdTable table;
  const core::Trial ref = cbr_trial(16, 10);
  table.rebuild(ref);
  // Insert far more stream-side ids than the initial capacity holds.
  for (std::uint64_t i = 0; i < 4096; ++i) {
    table.observe(core::PacketId{1, i});
  }
  for (std::uint32_t j = 0; j < ref.size(); ++j) {
    ASSERT_EQ(table.ref_index_of(ref[j].id), j) << "ref position " << j;
  }
  // Occurrence counters also survive the rehash.
  EXPECT_EQ(table.observe(core::PacketId{1, 5}).occurrence, 1u);
}

// ---- Closed-form synthetic streams -------------------------------------

TEST(StreamMonitor, IdenticalStreamIsPerfectlyConsistent) {
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(64, 1000);
  feed(mon, a, "reference");
  feed(mon, a);
  mon.finalize();

  ASSERT_EQ(mon.windows().size(), 1u);
  const WindowRecord& w = mon.windows().front();
  EXPECT_EQ(w.metrics.uniqueness, 0.0);
  EXPECT_EQ(w.metrics.ordering, 0.0);
  EXPECT_EQ(w.metrics.latency, 0.0);
  EXPECT_EQ(w.metrics.iat, 0.0);
  EXPECT_EQ(w.metrics.kappa, 1.0);
  EXPECT_EQ(w.missing, 0u);
  EXPECT_EQ(w.extra, 0u);
  EXPECT_EQ(w.moved, 0u);
  EXPECT_EQ(w.kappa_running, 1.0);

  ASSERT_EQ(mon.streams().size(), 1u);
  EXPECT_EQ(mon.streams().front().metrics.kappa, 1.0);
  EXPECT_TRUE(mon.divergence().empty());
  EXPECT_EQ(mon.matched(), 64u);
}

TEST(StreamMonitor, ConstantTimeShiftIsInvisible) {
  // Windows are rebased to their own first packet, so a rigid shift of
  // the whole stream changes nothing (same as the offline L and I).
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(32, 500);
  feed(mon, a, "reference");
  feed(mon, cbr_trial(32, 500, /*start=*/987654));
  mon.finalize();
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_EQ(mon.windows().front().metrics.kappa, 1.0);
  EXPECT_EQ(mon.streams().front().metrics.kappa, 1.0);
}

TEST(StreamMonitor, DroppedPacketUniquenessClosedForm) {
  // A = 10 packets, B dropped one. The stream finale is the offline
  // Eq. 1: U = 1 - 2*9/(10+9) = 1/19. The (single) window pairs only
  // the first 9 reference packets, so its closed form is
  // U = 1 - 2*8/(9+9) = 1/9 (8 common: id 10 pairs in, id 5 is gone).
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(10, 100);
  std::vector<core::TrialPacket> dropped;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == 4) continue;
    dropped.push_back(a[i]);
  }
  feed(mon, a, "reference");
  feed(mon, core::Trial(std::move(dropped)));
  mon.finalize();

  ASSERT_EQ(mon.streams().size(), 1u);
  const StreamResult& s = mon.streams().front();
  EXPECT_NEAR(s.metrics.uniqueness, 1.0 / 19.0, 1e-12);
  EXPECT_EQ(s.missing, 1u);
  EXPECT_EQ(s.extra, 0u);

  ASSERT_EQ(mon.windows().size(), 1u);
  const WindowRecord& w = mon.windows().front();
  EXPECT_EQ(w.a_end - w.a_begin, 9u);
  EXPECT_EQ(w.common, 8u);
  EXPECT_NEAR(w.metrics.uniqueness, 1.0 / 9.0, 1e-12);
  EXPECT_EQ(w.missing, 1u);  // id 5, absent from the window
  EXPECT_EQ(w.extra, 1u);    // id 10, outside the paired A slice
}

TEST(StreamMonitor, AdjacentSwapOrderingClosedForm) {
  // One move of distance 1 over the max sum m(m+1)/2 = 10 -> O = 1/10
  // (the paper's worked example, here observed live).
  StreamMonitor mon(offline_config());
  feed(mon, cbr_trial(4, 100), "reference");
  feed(mon, make_trial({1, 3, 2, 4}, {0, 100, 200, 300}));
  mon.finalize();

  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_NEAR(mon.windows().front().metrics.ordering, 1.0 / 10.0, 1e-12);
  EXPECT_NEAR(mon.streams().front().metrics.ordering, 1.0 / 10.0, 1e-12);
}

TEST(StreamMonitor, LatencyStraddleClosedForm) {
  // Section 3 worked example: the common packet arrives 9 ns after the
  // start of A and 8 ns after the start of B -> L = 1/18.
  StreamMonitor mon(offline_config());
  feed(mon, make_trial({1, 2}, {0, 9}), "reference");
  feed(mon, make_trial({1, 2}, {0, 8}));
  mon.finalize();
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_NEAR(mon.windows().front().metrics.latency, 1.0 / 18.0, 1e-12);
}

TEST(StreamMonitor, DuplicateRawIdsAreOccurrenceTagged) {
  // The same raw id three times in both trials matches positionally
  // (occurrence tagging), so the stream is perfectly consistent.
  StreamMonitor mon(offline_config());
  feed(mon, make_trial({7, 7, 7, 8}, {0, 10, 20, 30}), "reference");
  feed(mon, make_trial({7, 7, 7, 8}, {0, 10, 20, 30}));
  mon.finalize();
  EXPECT_EQ(mon.matched(), 4u);
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_EQ(mon.windows().front().metrics.kappa, 1.0);
}

// ---- Full-trial window == offline Eq. 5 (acceptance) -------------------

TEST(StreamMonitor, FullTrialWindowReproducesOfflineKappa) {
  // A single window covering the whole (jittered, reordered, lossy)
  // stream must reproduce core::compare_trials within 1e-9 on every
  // component. Extras are injected so nb >= na and the window pairs the
  // complete reference.
  const core::Trial a = cbr_trial(512, 1000);
  core::Trial b = perturb(a, /*seed=*/2025);
  for (std::uint64_t i = 0; i < 16; ++i) {  // alien extras, in time order
    b.push_back(core::TrialPacket{
        core::PacketId{3, i}, b.last_time() + 500 + 10 * static_cast<Ns>(i)});
  }
  ASSERT_GE(b.size(), a.size());

  StreamMonitor mon(offline_config());
  feed(mon, a, "reference");
  feed(mon, b);
  mon.finalize();

  // The monitor rebases every slice to its own first packet; mirror that
  // for the offline call (the L straddle mixes the two trials' absolute
  // times, so a rigid shift of B is not invisible to the denominator).
  std::vector<core::TrialPacket> rebased(b.packets());
  for (auto& p : rebased) p.time -= b.first_time();
  core::Trial b_tagged{std::move(rebased)};
  b_tagged.make_occurrences_unique();
  const core::ComparisonResult offline = core::compare_trials(a, b_tagged);
  ASSERT_EQ(mon.windows().size(), 1u);
  const WindowRecord& w = mon.windows().front();
  EXPECT_NEAR(w.metrics.uniqueness, offline.metrics.uniqueness, 1e-9);
  EXPECT_NEAR(w.metrics.ordering, offline.metrics.ordering, 1e-9);
  EXPECT_NEAR(w.metrics.latency, offline.metrics.latency, 1e-9);
  EXPECT_NEAR(w.metrics.iat, offline.metrics.iat, 1e-9);
  EXPECT_NEAR(w.metrics.kappa, offline.metrics.kappa, 1e-9);
  EXPECT_EQ(w.common, offline.common);
  EXPECT_EQ(w.lcs_length, offline.lcs_length);

  // The stream finale runs the identical computation.
  const StreamResult& s = mon.streams().front();
  EXPECT_NEAR(s.metrics.kappa, offline.metrics.kappa, 1e-9);
  EXPECT_EQ(s.common, offline.common);
  EXPECT_EQ(s.moved, offline.moved);
}

// ---- Windowing and boundary drift --------------------------------------

TEST(StreamMonitor, WindowBoundariesAndDriftAttribution) {
  // window_packets = 4 over an 8-packet stream where id 4 drifts into
  // the second window: it reads as missing in window 0 and extra in
  // window 1 — the boundary-drift signature documented in MONITOR.md.
  StreamMonitor mon(offline_config(/*window_packets=*/4));
  const core::Trial a = cbr_trial(8, 100);
  feed(mon, a, "reference");
  feed(mon, make_trial({1, 2, 3, 5, 4, 6, 7, 8},
                       {0, 100, 200, 300, 400, 500, 600, 700}));
  mon.finalize();

  ASSERT_EQ(mon.windows().size(), 2u);
  const WindowRecord& w0 = mon.windows()[0];
  const WindowRecord& w1 = mon.windows()[1];
  EXPECT_EQ(w0.b_begin, 0u);
  EXPECT_EQ(w0.b_end, 4u);
  EXPECT_EQ(w0.a_begin, 0u);
  EXPECT_EQ(w0.a_end, 4u);
  EXPECT_EQ(w1.b_begin, 4u);
  EXPECT_EQ(w1.b_end, 8u);
  EXPECT_EQ(w0.missing, 1u);  // id 4 not in window 0
  EXPECT_EQ(w0.extra, 1u);    // id 5 ahead of its slice
  EXPECT_EQ(w1.missing, 1u);  // id 5 already consumed
  EXPECT_EQ(w1.extra, 1u);    // id 4, late

  bool missing4 = false;
  bool extra4 = false;
  for (const DivergenceRecord& r : mon.divergence()) {
    if (r.id == core::PacketId{0, 4} &&
        r.kind == DivergenceRecord::Kind::kMissing && r.window == 0) {
      missing4 = true;
      EXPECT_EQ(r.index_a, 3);
      EXPECT_EQ(r.index_b, -1);
    }
    if (r.id == core::PacketId{0, 4} &&
        r.kind == DivergenceRecord::Kind::kExtra && r.window == 1) {
      extra4 = true;
      EXPECT_EQ(r.index_b, 4);
      EXPECT_EQ(r.index_a, -1);
    }
  }
  EXPECT_TRUE(missing4);
  EXPECT_TRUE(extra4);

  // The stream finale sees the whole trial, where the drift is only a
  // local reorder: no missing/extra at all.
  EXPECT_EQ(mon.streams().front().missing, 0u);
  EXPECT_EQ(mon.streams().front().extra, 0u);
}

TEST(StreamMonitor, MovedAttributionAndTopKLimit) {
  StreamMonitor cfg_full(offline_config(1u << 20, /*top_k=*/16));
  feed(cfg_full, cbr_trial(6, 100), "reference");
  feed(cfg_full, make_trial({2, 1, 4, 3, 6, 5},
                            {0, 100, 200, 300, 400, 500}));
  cfg_full.finalize();
  std::size_t moved = 0;
  for (const DivergenceRecord& r : cfg_full.divergence()) {
    if (r.kind == DivergenceRecord::Kind::kMoved) {
      ++moved;
      EXPECT_EQ(std::abs(r.move), 1);
      EXPECT_GE(r.index_b, 0);
    }
  }
  EXPECT_GE(moved, 3u);  // three adjacent swaps, at least one move each

  // top_k = 1 keeps a single moved record per window.
  StreamMonitor cfg_k1(offline_config(1u << 20, /*top_k=*/1));
  feed(cfg_k1, cbr_trial(6, 100), "reference");
  feed(cfg_k1, make_trial({2, 1, 4, 3, 6, 5}, {0, 100, 200, 300, 400, 500}));
  cfg_k1.finalize();
  moved = 0;
  for (const DivergenceRecord& r : cfg_k1.divergence()) {
    if (r.kind == DivergenceRecord::Kind::kMoved) ++moved;
  }
  EXPECT_EQ(moved, 1u);

  // top_k = 0 disables attribution entirely.
  StreamMonitor cfg_k0(offline_config(1u << 20, /*top_k=*/0));
  feed(cfg_k0, cbr_trial(6, 100), "reference");
  feed(cfg_k0, make_trial({2, 1, 4, 3, 6, 5}, {0, 100, 200, 300, 400, 500}));
  cfg_k0.finalize();
  EXPECT_TRUE(cfg_k0.divergence().empty());
}

TEST(StreamMonitor, RunningEstimateTracksExactComponents) {
  // U, L, I in the running estimate are exact; on a stream whose only
  // defect is one dropped packet, the estimate at the final window must
  // agree with the whole-trial U and keep O/L/I at zero.
  StreamMonitor mon(offline_config(1u << 20));
  const core::Trial a = cbr_trial(20, 100);
  std::vector<core::TrialPacket> b;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != 10) b.push_back(a[i]);
  }
  feed(mon, a, "reference");
  feed(mon, core::Trial(std::move(b)));
  mon.finalize();
  const RunningEstimate& r = mon.running();
  // 19 B packets, 19 matched against a 20-packet reference.
  EXPECT_NEAR(r.uniqueness, 1.0 - 2.0 * 19.0 / 39.0, 1e-12);
  EXPECT_EQ(r.ordering, 0.0);
  EXPECT_EQ(r.lcs_length, 19u);
  EXPECT_GT(r.kappa, 0.9);
}

TEST(StreamMonitor, ReferenceFromFirstStream) {
  // The first stream becomes A and emits no windows; every later stream
  // is monitored against it.
  MonitorConfig cfg;
  cfg.window_packets = 1u << 20;
  StreamMonitor mon(cfg);
  const core::Trial a = cbr_trial(16, 250);
  feed(mon, a, "run-0");
  feed(mon, a, "run-1");  // closing run-0 installs it as the reference
  EXPECT_TRUE(mon.has_reference());
  feed(mon, perturb(a, 4), "run-2");
  mon.finalize();
  ASSERT_EQ(mon.streams().size(), 2u);
  EXPECT_EQ(mon.streams()[0].name, "run-1");
  EXPECT_EQ(mon.streams()[0].metrics.kappa, 1.0);
  EXPECT_EQ(mon.streams()[1].name, "run-2");
  EXPECT_LT(mon.streams()[1].metrics.kappa, 1.0);
  ASSERT_EQ(mon.windows().size(), 2u);
  EXPECT_EQ(mon.windows()[0].stream_name, "run-1");
  EXPECT_EQ(mon.windows()[1].stream_name, "run-2");
}

// ---- Serialization determinism -----------------------------------------

TEST(Divergence, SerializationIsByteDeterministic) {
  // Two monitors fed the identical sequence serialize byte-identically
  // (fixed key order, %.17g doubles) — the in-process half of the
  // divergence.jsonl determinism regression.
  const core::Trial a = cbr_trial(300, 1000);
  const core::Trial b = perturb(a, 99);
  std::string first;
  for (int round = 0; round < 2; ++round) {
    StreamMonitor mon(offline_config(/*window_packets=*/64));
    feed(mon, a, "reference");
    feed(mon, b, "run");
    mon.finalize();
    std::ostringstream jsonl, csv;
    write_divergence_jsonl(mon, jsonl);
    write_windows_csv(mon, csv);
    const std::string combined = jsonl.str() + "\n--\n" + csv.str();
    if (round == 0) {
      first = combined;
      EXPECT_FALSE(jsonl.str().empty());
    } else {
      EXPECT_EQ(combined, first);
    }
  }
}

TEST(Divergence, JsonlSchemaFields) {
  StreamMonitor mon(offline_config());
  feed(mon, cbr_trial(4, 100), "reference");
  feed(mon, make_trial({1, 3, 2, 4}, {0, 100, 200, 300}), "run");
  mon.finalize();
  std::ostringstream out;
  write_divergence_jsonl(mon, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"stream\":\"run\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"moved\""), std::string::npos);
  EXPECT_NE(text.find("\"id_lo\""), std::string::npos);
  EXPECT_NE(text.find("\"move\""), std::string::npos);
  EXPECT_NE(text.find("\"t_ns\""), std::string::npos);
}

}  // namespace
}  // namespace choir::monitor
