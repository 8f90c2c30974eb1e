// Unit tests for the streaming consistency monitor: closed-form
// windowed-κ checks on synthetic runs, the full-trial-window ≡ offline
// Eq. 5 equivalence, per-flow windows over by-key remapped flow ids, and
// divergence attribution.
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

/// B as an experiment's round close builds it: occurrence-tagged and
/// rebased to its first packet, whose raw time is `origin`.
core::Trial closed_trial(const core::Trial& b, Ns* origin) {
  core::Trial trial = b;
  trial.make_occurrences_unique();
  *origin = b.empty() ? 0 : b.first_time();
  trial.rebase_to_zero();
  return trial;
}

/// Window run `b`, named `name`, against the reference `a` (run A,
/// already occurrence-tagged and rebased), without flow ids.
void feed(StreamMonitor& mon, const core::Trial& a, const core::Trial& b,
          const std::string& name = "b") {
  Ns origin = 0;
  const core::Trial trial = closed_trial(b, &origin);
  mon.monitor_run(name, {.reference = a, .trial = trial, .origin = origin});
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

// ---- Closed-form synthetic streams -------------------------------------

TEST(StreamMonitor, IdenticalStreamIsPerfectlyConsistent) {
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(64, 1000);
  feed(mon, a, a);

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
}

TEST(StreamMonitor, ConstantTimeShiftIsInvisible) {
  // Windows are rebased to their own first packet, so a rigid shift of
  // the whole stream changes nothing (same as the offline L and I).
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(32, 500);
  feed(mon, a, cbr_trial(32, 500, /*start=*/987654));
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
  feed(mon, a, b);

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
  feed(mon, a, make_trial({1, 3, 2, 4}, {0, 100, 200, 300}));

  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_NEAR(mon.windows().front().metrics.ordering, 1.0 / 10.0, 1e-12);
}

TEST(StreamMonitor, LatencyStraddleClosedForm) {
  // Section 3 worked example: the common packet arrives 9 ns after the
  // start of A and 8 ns after the start of B -> L = 1/18.
  StreamMonitor mon(offline_config());
  const core::Trial a = make_trial({1, 2}, {0, 9});
  feed(mon, a, make_trial({1, 2}, {0, 8}));
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_NEAR(mon.windows().front().metrics.latency, 1.0 / 18.0, 1e-12);
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
  feed(mon, a, b);

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
  feed(mon, a, b);

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
  const core::Trial swapped =
      make_trial({2, 1, 4, 3, 6, 5}, {0, 100, 200, 300, 400, 500});
  feed(cfg_full, a, swapped);
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
  feed(cfg_k1, a, swapped);
  moved = 0;
  for (const DivergenceRecord& r : cfg_k1.divergence()) {
    if (r.kind == DivergenceRecord::Kind::kMoved) ++moved;
  }
  EXPECT_EQ(moved, 1u);

  // top_k = 0 disables attribution entirely.
  StreamMonitor cfg_k0(offline_config(1u << 20, /*top_k=*/0));
  feed(cfg_k0, a, swapped);
  EXPECT_TRUE(cfg_k0.divergence().empty());
}

TEST(StreamMonitor, ReferenceFlowIdsParallelTheReference) {
  // Flow ids are per packet or absent: a span of any other length would
  // pair windows with the wrong flows.
  StreamMonitor mon(offline_config());
  const core::Trial a = cbr_trial(4, 100);
  const std::vector<flow::FlowId> short_flows = {0, 1, 0};
  const std::vector<flow::FlowId> flows = {0, 1, 0, 1};
  EXPECT_THROW(mon.monitor_run("b", {.reference = a,
                                     .reference_flows = short_flows,
                                     .trial = a,
                                     .flows = flows,
                                     .flow_count = 2}),
               Error);
  EXPECT_THROW(mon.monitor_run("b", {.reference = a,
                                     .reference_flows = flows,
                                     .trial = a,
                                     .flows = short_flows,
                                     .flow_count = 2}),
               Error);
  EXPECT_TRUE(mon.windows().empty());
  mon.monitor_run("b", {.reference = a,
                        .reference_flows = flows,
                        .trial = a,
                        .flows = flows,
                        .flow_count = 2});
  ASSERT_EQ(mon.windows().size(), 1u);
  EXPECT_TRUE(mon.windows().front().has_flows);
}

TEST(StreamMonitor, WindowFlowsRemappedByKeyMatchCompareFlows) {
  // One window holds a flow of both runs (k0), a flow only A has (k1)
  // and a flow only B has (k2). B was classified on its own, so its ids
  // go through the by-key remap into A's id space, as an experiment's
  // round close maps them; the window's per-flow κ must then be
  // compare_flows over the same two slices.
  const flow::FlowKey k0{.src_ip = 1, .dst_ip = 2, .src_port = 10,
                         .dst_port = 20};
  const flow::FlowKey k1{.src_ip = 1, .dst_ip = 2, .src_port = 11,
                         .dst_port = 20};
  const flow::FlowKey k2{.src_ip = 1, .dst_ip = 2, .src_port = 12,
                         .dst_port = 20};
  flow::FlowTable table_a;
  flow::FlowTable table_b;
  table_a.classify(k0);  // A: k0 -> 0, k1 -> 1
  table_a.classify(k1);
  table_b.classify(k2);  // B: k2 -> 0, k0 -> 1
  table_b.classify(k0);

  const core::Trial a = make_trial({1, 2, 3, 4, 5, 6},
                                   {0, 100, 200, 300, 400, 500});
  const std::vector<flow::FlowId> ids_a = {0, 1, 0, 1, 0, 0};
  const core::Trial b = make_trial({10, 1, 3, 11, 6, 5},
                                   {0, 100, 220, 300, 390, 520});
  const std::vector<flow::FlowId> ids_b = {0, 1, 1, 0, 1, 1};

  const flow::FlowRemap remap = flow::remap_flows(table_a, table_b, ids_b);
  EXPECT_EQ(remap.flow_count, 3u);
  EXPECT_EQ(remap.ids, (std::vector<flow::FlowId>{2, 0, 0, 2, 0, 0}));
  StreamMonitor mon(offline_config());
  mon.monitor_run("run-1", {.reference = a,
                            .reference_flows = ids_a,
                            .trial = b,
                            .flows = remap.ids,
                            .flow_count = remap.flow_count});

  ASSERT_EQ(mon.windows().size(), 1u);
  const WindowRecord& w = mon.windows().front();
  ASSERT_TRUE(w.has_flows);
  EXPECT_EQ(w.flow_aggregate.flows, 3u);
  EXPECT_EQ(w.flow_aggregate.matched, 1u);
  EXPECT_EQ(w.flow_aggregate.only_a, 1u);
  EXPECT_EQ(w.flow_aggregate.only_b, 1u);

  // The window covers both trials, which already start at 0, so its
  // slices are the trials themselves.
  const flow::FlowAggregate want =
      flow::compare_flows(a, table_a, ids_a, b, table_b, ids_b).aggregate;
  const flow::FlowAggregate& got = w.flow_aggregate;
  EXPECT_EQ(got.flows, want.flows);
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.only_a, want.only_a);
  EXPECT_EQ(got.only_b, want.only_b);
  EXPECT_EQ(got.worst, want.worst);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.p999, want.p999);
  EXPECT_EQ(got.weighted_mean, want.weighted_mean);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_LT(got.worst, 1.0);  // the one-sided flows grade κ = 0.5
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
    feed(mon, a, b, "run");
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
  feed(mon, a, make_trial({1, 3, 2, 4}, {0, 100, 200, 300}), "run");
  const std::string text = render_divergence_jsonl(mon);
  EXPECT_NE(text.find("\"stream\":\"run\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"moved\""), std::string::npos);
  EXPECT_NE(text.find("\"id_lo\""), std::string::npos);
  EXPECT_NE(text.find("\"move\""), std::string::npos);
  EXPECT_NE(text.find("\"t_ns\""), std::string::npos);
}

}  // namespace
}  // namespace choir::monitor
