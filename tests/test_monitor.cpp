// Unit tests for the streaming consistency monitor: the IdTable building
// block, closed-form windowed-κ checks on synthetic streams, the
// full-trial-window ≡ offline Eq. 5 equivalence, and divergence
// attribution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "core/metrics.hpp"
#include "monitor/divergence.hpp"
#include "monitor/stream_monitor.hpp"

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
/// ids. Tests hand the monitor its reference trial A with set_reference()
/// first (A must outlive finalize()); every stream fed after that is
/// monitored against A.
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
  mon.set_reference(a, {});
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

  ASSERT_EQ(mon.streams().size(), 1u);
  EXPECT_EQ(mon.streams().front().packets, 64u);
  EXPECT_EQ(mon.streams().front().windows, 1u);
  EXPECT_TRUE(mon.divergence().empty());
  EXPECT_EQ(mon.matched(), 64u);
}

TEST(StreamMonitor, ConstantTimeShiftIsInvisible) {
  // Windows are rebased to their own first packet, so a rigid shift of
  // the whole stream changes nothing (same as the offline L and I).
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(32, 500);
  mon.set_reference(a, {});
  feed(mon, cbr_trial(32, 500, /*start=*/987654));
  mon.finalize();
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_EQ(mon.windows().front().metrics.kappa, 1.0);
}

TEST(StreamMonitor, DroppedPacketUniquenessClosedForm) {
  // A = 10 packets, B dropped one. Over the whole trial this is the
  // offline Eq. 1 worked example, U = 1/19 (MetricU.PaperWorkedExample):
  // one missing packet, no extra. The (single) window pairs only the
  // first 9 reference packets, so its closed form is
  // U = 1 - 2*8/(9+9) = 1/9 (8 common: id 10 pairs in, id 5 is gone).
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(10, 100);
  std::vector<core::TrialPacket> dropped;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == 4) continue;
    dropped.push_back(a[i]);
  }
  const core::Trial b(std::move(dropped));
  mon.set_reference(a, {});
  feed(mon, b);
  mon.finalize();

  const core::ComparisonResult whole = core::compare_trials(a, b);
  EXPECT_EQ(whole.size_a - whole.common, 1u);
  EXPECT_EQ(whole.size_b - whole.common, 0u);

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
  const core::Trial a = cbr_trial(4, 100);
  mon.set_reference(a, {});
  feed(mon, make_trial({1, 3, 2, 4}, {0, 100, 200, 300}));
  mon.finalize();

  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_NEAR(mon.windows().front().metrics.ordering, 1.0 / 10.0, 1e-12);
}

TEST(StreamMonitor, LatencyStraddleClosedForm) {
  // Section 3 worked example: the common packet arrives 9 ns after the
  // start of A and 8 ns after the start of B -> L = 1/18.
  StreamMonitor mon(offline_config());
  const core::Trial a = make_trial({1, 2}, {0, 9});
  mon.set_reference(a, {});
  feed(mon, make_trial({1, 2}, {0, 8}));
  mon.finalize();
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_NEAR(mon.windows().front().metrics.latency, 1.0 / 18.0, 1e-12);
}

TEST(StreamMonitor, DuplicateRawIdsAreOccurrenceTagged) {
  // The same raw id three times in both trials matches positionally
  // (occurrence tagging), so the stream is perfectly consistent. The
  // reference arrives tagged, as the evaluation's run A trial does.
  StreamMonitor mon(offline_config());
  core::Trial a = make_trial({7, 7, 7, 8}, {0, 10, 20, 30});
  a.make_occurrences_unique();
  mon.set_reference(a, {});
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
  mon.set_reference(a, {});
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
  EXPECT_EQ(w.moved, offline.moved);
  EXPECT_EQ(w.lcs_length, offline.lcs_length);
}

// ---- Windowing and boundary drift --------------------------------------

TEST(StreamMonitor, WindowBoundariesAndDriftAttribution) {
  // window_packets = 4 over an 8-packet stream where id 4 drifts into
  // the second window: it reads as missing in window 0 and extra in
  // window 1 — the boundary-drift signature documented in MONITOR.md.
  StreamMonitor mon(offline_config(/*window_packets=*/4));
  const core::Trial a = cbr_trial(8, 100);
  const core::Trial b = make_trial({1, 2, 3, 5, 4, 6, 7, 8},
                                   {0, 100, 200, 300, 400, 500, 600, 700});
  mon.set_reference(a, {});
  feed(mon, b);
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

  // The whole-trial comparison, where the drift is only a local reorder:
  // no missing/extra at all.
  const core::ComparisonResult whole = core::compare_trials(a, b);
  EXPECT_EQ(whole.size_a - whole.common, 0u);
  EXPECT_EQ(whole.size_b - whole.common, 0u);
  EXPECT_EQ(whole.moved, 1u);
}

TEST(StreamMonitor, MovedAttributionAndTopKLimit) {
  const core::Trial a = cbr_trial(6, 100);
  StreamMonitor cfg_full(offline_config(1u << 20, /*top_k=*/16));
  cfg_full.set_reference(a, {});
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
  cfg_k1.set_reference(a, {});
  feed(cfg_k1, make_trial({2, 1, 4, 3, 6, 5}, {0, 100, 200, 300, 400, 500}));
  cfg_k1.finalize();
  moved = 0;
  for (const DivergenceRecord& r : cfg_k1.divergence()) {
    if (r.kind == DivergenceRecord::Kind::kMoved) ++moved;
  }
  EXPECT_EQ(moved, 1u);

  // top_k = 0 disables attribution entirely.
  StreamMonitor cfg_k0(offline_config(1u << 20, /*top_k=*/0));
  cfg_k0.set_reference(a, {});
  feed(cfg_k0, make_trial({2, 1, 4, 3, 6, 5}, {0, 100, 200, 300, 400, 500}));
  cfg_k0.finalize();
  EXPECT_TRUE(cfg_k0.divergence().empty());
}

TEST(StreamMonitor, ReferenceFromFirstStream) {
  // In an experiment the first stream is run A's own: it streams in
  // before its round close hands the monitor run A's trial, so it is
  // counted but keeps nothing and emits no windows. Every stream that
  // begins after set_reference() is monitored against A.
  MonitorConfig cfg;
  cfg.window_packets = 1u << 20;
  StreamMonitor mon(cfg);
  const core::Trial a = cbr_trial(16, 250);
  const core::Trial c = perturb(a, 4);
  feed(mon, a, "run-0");
  EXPECT_FALSE(mon.has_reference());
  mon.set_reference(a, {});
  EXPECT_TRUE(mon.has_reference());
  feed(mon, a, "run-1");  // closes run-0, which emits nothing
  feed(mon, c, "run-2");
  mon.finalize();
  EXPECT_FALSE(mon.has_reference());  // finalize() releases A
  EXPECT_EQ(mon.observed(), 2 * a.size() + c.size());
  ASSERT_EQ(mon.streams().size(), 2u);
  EXPECT_EQ(mon.streams()[0].name, "run-1");
  EXPECT_EQ(mon.streams()[1].name, "run-2");
  ASSERT_EQ(mon.windows().size(), 2u);
  EXPECT_EQ(mon.windows()[0].stream_name, "run-1");
  EXPECT_EQ(mon.windows()[0].metrics.kappa, 1.0);
  EXPECT_EQ(mon.windows()[1].stream_name, "run-2");
  EXPECT_LT(mon.windows()[1].metrics.kappa, 1.0);
}

TEST(StreamMonitor, ReferenceFlowIdsParallelTheReference) {
  // Flow ids are per reference packet or absent: a span of any other
  // length would pair windows with the wrong flows.
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(4, 100);
  const std::vector<flow::FlowId> short_flows = {0, 1, 0};
  EXPECT_THROW(mon.set_reference(a, short_flows), Error);
  EXPECT_FALSE(mon.has_reference());
  const std::vector<flow::FlowId> flows = {0, 1, 0, 1};
  mon.set_reference(a, flows);
  EXPECT_TRUE(mon.has_reference());
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
    mon.set_reference(a, {});
    feed(mon, b, "run");
    mon.finalize();
    const std::string jsonl = render_divergence_jsonl(mon);
    const std::string combined = jsonl + "\n--\n" + render_windows_csv(mon);
    if (round == 0) {
      first = combined;
      EXPECT_FALSE(jsonl.empty());
    } else {
      EXPECT_EQ(combined, first);
    }
  }
}

TEST(Divergence, JsonlSchemaFields) {
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(4, 100);
  mon.set_reference(a, {});
  feed(mon, make_trial({1, 3, 2, 4}, {0, 100, 200, 300}), "run");
  mon.finalize();
  const std::string text = render_divergence_jsonl(mon);
  EXPECT_NE(text.find("\"stream\":\"run\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"moved\""), std::string::npos);
  EXPECT_NE(text.find("\"id_lo\""), std::string::npos);
  EXPECT_NE(text.find("\"move\""), std::string::npos);
  EXPECT_NE(text.find("\"t_ns\""), std::string::npos);
}

}  // namespace
}  // namespace choir::monitor
