// Oracles for the flow-and-monitor evaluation plane. Each fast path is
// checked, bit for bit, against a transcription of the straightforward
// code it replaced:
//
//  - the single-parse sharded classifier against the rescanning one
//    (every shard re-parsed the whole capture, and the remap parsed each
//    record again to recover its shard);
//  - compare_flows_by_id over the position CSR against one rebased
//    Trial per flow and side;
//  - partial-sort top-K attribution against stable_sort + truncate;
//  - each window the monitor closes against fresh copies of both
//    slices, occurrence-tagged by a hash map of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/task_pool.hpp"
#include "core/metrics.hpp"
#include "flow/flow_kappa.hpp"
#include "flow/flow_shard.hpp"
#include "monitor/stream_monitor.hpp"
#include "monitor/top_k.hpp"
#include "pktio/headers.hpp"
#include "trace/flow_classify.hpp"
#include "trace/tag.hpp"

namespace choir {
namespace {

/// Deterministic LCG stream for test inputs.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// ---- Sharded classification -----------------------------------------------

/// `n` records over `flows` UDP flows and two trailer stream ids; every
/// 7th record has no parseable header stack (unclassified).
trace::Capture synthetic_capture(std::size_t n, std::uint32_t flows) {
  trace::Capture capture("oracle");
  Lcg rng{42};
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Frame frame;
    frame.wire_len = 64 + static_cast<std::uint32_t>(rng.below(1400));
    frame.payload_token = i;
    const auto f = static_cast<std::uint32_t>(rng.below(flows));
    if (i % 7 != 3) {
      pktio::FlowAddress addr;
      addr.src_ip = (10u << 24) | (f & 0xff);
      addr.dst_ip = (10u << 24) | 4u;
      addr.src_port = static_cast<std::uint16_t>(7000 + f);
      addr.dst_port = 7001;
      pktio::write_eth_ipv4_udp(frame, addr);
      trace::stamp(frame, trace::Tag{
          1, static_cast<std::uint32_t>(rng.below(2)), i});
    }
    capture.append(trace::CaptureRecord::from_frame(
        frame, static_cast<Ns>(i) * 97 + static_cast<Ns>(rng.below(50))));
  }
  return capture;
}

/// The sharded classifier before the single-parse rewrite, verbatim in
/// substance: each shard rescans and re-parses the whole capture, and
/// the remap re-parses every record to recover its shard.
trace::FlowClassification classify_sharded_rescanning(
    const trace::Capture& capture, int shards, int jobs) {
  if (shards <= 1) return trace::classify_capture(capture);
  flow::FlowShardSet set(shards);
  std::vector<flow::FlowId> local(capture.size(), flow::kNoFlow);
  std::vector<std::uint64_t> unclassified(static_cast<std::size_t>(shards),
                                          0);
  parallel_for_indexed(jobs, static_cast<std::size_t>(shards),
                       [&](std::size_t s) {
    flow::FlowTable& table = set.shard(static_cast<int>(s));
    flow::FlowKey key;
    for (std::size_t i = 0; i < capture.size(); ++i) {
      const trace::CaptureRecord& record = capture[i];
      if (!trace::key_of_record(record, &key)) {
        if (s == 0) ++unclassified[0];
        continue;
      }
      if (set.shard_of(key) != static_cast<int>(s)) continue;
      local[i] = table.classify(key, record.wire_len, record.timestamp, i);
    }
  });
  const std::vector<flow::GlobalFlow> global = flow::merged_flows(set);
  trace::FlowClassification out;
  out.unclassified = unclassified[0];
  std::vector<std::vector<flow::FlowId>> remap(
      static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    remap[static_cast<std::size_t>(s)].assign(set.shard(s).size(),
                                              flow::kNoFlow);
  }
  flow::FlowId gid = 0;
  for (const flow::GlobalFlow& gf : global) {
    out.table.merge_entry(gf.key, gf.stats);
    remap[static_cast<std::size_t>(gf.shard)][gf.local_id] = gid++;
  }
  out.per_packet.assign(capture.size(), flow::kNoFlow);
  for (std::size_t i = 0; i < capture.size(); ++i) {
    if (local[i] == flow::kNoFlow) continue;
    flow::FlowKey key;
    trace::key_of_record(capture[i], &key);
    out.per_packet[i] =
        remap[static_cast<std::size_t>(set.shard_of(key))][local[i]];
  }
  return out;
}

void expect_same_classification(const trace::FlowClassification& got,
                                const trace::FlowClassification& want) {
  EXPECT_EQ(got.unclassified, want.unclassified);
  EXPECT_EQ(got.per_packet, want.per_packet);
  ASSERT_EQ(got.table.size(), want.table.size());
  for (flow::FlowId id = 0; id < want.table.size(); ++id) {
    EXPECT_EQ(got.table.key_of(id), want.table.key_of(id)) << id;
    const auto& g = got.table.stats_of(id);
    const auto& w = want.table.stats_of(id);
    EXPECT_EQ(g.packets, w.packets) << id;
    EXPECT_EQ(g.bytes, w.bytes) << id;
    EXPECT_EQ(g.first_index, w.first_index) << id;
    EXPECT_EQ(g.first_seen, w.first_seen) << id;
    EXPECT_EQ(g.last_seen, w.last_seen) << id;
  }
}

TEST(EvalPlaneOracle, ShardedClassifierMatchesRescanningAndSequential) {
  const trace::Capture capture = synthetic_capture(3000, 97);
  const trace::FlowClassification sequential =
      trace::classify_capture(capture);
  ASSERT_GT(sequential.unclassified, 0u);
  ASSERT_EQ(sequential.table.size(), 2u * 97u);
  for (const int shards : {1, 2, 3, 8, 16}) {
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards " << shards << " jobs " << jobs);
      const trace::FlowClassification fast =
          trace::classify_capture_sharded(capture, shards, jobs);
      expect_same_classification(
          fast, classify_sharded_rescanning(capture, shards, jobs));
      expect_same_classification(fast, sequential);
    }
  }
}

// ---- Per-flow κ by id -----------------------------------------------------

/// compare_flows_by_id before the position CSR: one Trial per flow and
/// side, each rebased to its first packet, compared flow by flow.
flow::FlowSetComparison compare_by_id_per_flow_trials(
    const core::Trial& a, const std::vector<flow::FlowId>& ids_a,
    const core::Trial& b, const std::vector<flow::FlowId>& ids_b,
    std::size_t flow_count) {
  flow::FlowSetComparison out;
  std::vector<core::Trial> ta(flow_count);
  std::vector<core::Trial> tb(flow_count);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ids_a[i] == flow::kNoFlow) {
      ++out.unclassified_a;
    } else {
      ta[ids_a[i]].push_back(a[i]);
    }
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (ids_b[i] == flow::kNoFlow) {
      ++out.unclassified_b;
    } else {
      tb[ids_b[i]].push_back(b[i]);
    }
  }
  out.flows.resize(flow_count);
  for (std::size_t f = 0; f < flow_count; ++f) {
    ta[f].rebase_to_zero();
    tb[f].rebase_to_zero();
    flow::FlowComparison& fc = out.flows[f];
    fc.id = static_cast<flow::FlowId>(f);
    fc.packets_a = static_cast<std::uint32_t>(ta[f].size());
    fc.packets_b = static_cast<std::uint32_t>(tb[f].size());
    fc.in_a = !ta[f].empty();
    fc.in_b = !tb[f].empty();
    if (fc.matched()) {
      fc.metrics = core::compare_trials(ta[f], tb[f]).metrics;
    } else if (fc.in_a || fc.in_b) {
      fc.metrics.uniqueness = 1.0;
      fc.metrics.kappa = core::kappa_of(1.0, 0.0, 0.0, 0.0);
    }
  }
  out.aggregate = flow::aggregate_flows(out.flows);
  return out;
}

/// Bit equality of doubles (NaN-safe, distinguishes -0.0).
void expect_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_same_metrics(const core::ConsistencyMetrics& got,
                         const core::ConsistencyMetrics& want) {
  expect_bits(got.uniqueness, want.uniqueness, "U");
  expect_bits(got.ordering, want.ordering, "O");
  expect_bits(got.latency, want.latency, "L");
  expect_bits(got.iat, want.iat, "I");
  expect_bits(got.kappa, want.kappa, "kappa");
}

TEST(EvalPlaneOracle, FlowsByIdCsrMatchesPerFlowTrials) {
  // 40 ids in play out of a 46-id space (ids 40..45 are never used, and
  // flows 7 and 11 appear on one side only); ~1/10 packets are kNoFlow.
  constexpr std::size_t kFlowCount = 46;
  Lcg rng{7};
  core::Trial a;
  core::Trial b;
  std::vector<flow::FlowId> ids_a;
  std::vector<flow::FlowId> ids_b;
  const auto pick = [&](bool side_a) -> flow::FlowId {
    if (rng.below(10) == 0) return flow::kNoFlow;
    auto f = static_cast<flow::FlowId>(rng.below(40));
    if (f == 7 && !side_a) f = 8;   // flow 7: A only
    if (f == 11 && side_a) f = 12;  // flow 11: B only
    return f;
  };
  for (std::uint64_t i = 0; i < 2000; ++i) {
    a.push_back({core::PacketId{3, i}, static_cast<Ns>(i * 100)});
    ids_a.push_back(pick(true));
  }
  // B: A with drops, local swaps and jitter, plus a few packets A lacks.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    if (rng.below(50) == 0) continue;
    const auto t = static_cast<Ns>(i * 100 + rng.below(300));
    const std::uint64_t id = rng.below(80) == 0 ? 1'000'000 + i : i;
    b.push_back({core::PacketId{3, id}, t});
    ids_b.push_back(pick(false));
  }
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
    const flow::FlowSetComparison got =
        flow::compare_flows_by_id(a, ids_a, b, ids_b, kFlowCount, jobs);
    const flow::FlowSetComparison want =
        compare_by_id_per_flow_trials(a, ids_a, b, ids_b, kFlowCount);
    EXPECT_EQ(got.unclassified_a, want.unclassified_a);
    EXPECT_EQ(got.unclassified_b, want.unclassified_b);
    ASSERT_EQ(got.flows.size(), want.flows.size());
    for (std::size_t f = 0; f < want.flows.size(); ++f) {
      SCOPED_TRACE(::testing::Message() << "flow " << f);
      const flow::FlowComparison& g = got.flows[f];
      const flow::FlowComparison& w = want.flows[f];
      EXPECT_EQ(g.id, w.id);
      EXPECT_EQ(g.packets_a, w.packets_a);
      EXPECT_EQ(g.packets_b, w.packets_b);
      EXPECT_EQ(g.in_a, w.in_a);
      EXPECT_EQ(g.in_b, w.in_b);
      expect_same_metrics(g.metrics, w.metrics);
    }
    EXPECT_TRUE(want.flows[7].in_a && !want.flows[7].in_b);
    EXPECT_TRUE(!want.flows[11].in_a && want.flows[11].in_b);
    EXPECT_FALSE(want.flows[45].in_a || want.flows[45].in_b);
    const flow::FlowAggregate& g = got.aggregate;
    const flow::FlowAggregate& w = want.aggregate;
    EXPECT_EQ(g.flows, w.flows);
    EXPECT_EQ(g.matched, w.matched);
    EXPECT_EQ(g.only_a, w.only_a);
    EXPECT_EQ(g.only_b, w.only_b);
    expect_bits(g.worst, w.worst, "worst");
    expect_bits(g.p50, w.p50, "p50");
    expect_bits(g.p90, w.p90, "p90");
    expect_bits(g.p99, w.p99, "p99");
    expect_bits(g.p999, w.p999, "p999");
    expect_bits(g.weighted_mean, w.weighted_mean, "weighted_mean");
    expect_bits(g.mean, w.mean, "mean");
  }
}

// ---- Top-K attribution ----------------------------------------------------

TEST(EvalPlaneOracle, PartialSortTopKMatchesStableSort) {
  Lcg rng{11};
  constexpr std::size_t kN = 300;
  // Moves at unique B positions with displacements from a small range,
  // so |displacement| ties are everywhere.
  std::vector<std::uint32_t> positions(kN);
  for (std::uint32_t i = 0; i < kN; ++i) positions[i] = i * 3;
  for (std::size_t i = kN - 1; i > 0; --i) {
    std::swap(positions[i], positions[rng.below(i + 1)]);
  }
  std::vector<core::Move> moves(kN);
  std::vector<double> delta(kN);
  const double kDeltas[] = {-7.0, -2.5, -1.0, 1.0, 2.5, 7.0};
  for (std::size_t i = 0; i < kN; ++i) {
    moves[i].index_b = positions[i];
    moves[i].displacement = static_cast<std::int64_t>(rng.below(7)) - 3;
    delta[i] = kDeltas[rng.below(6)];
  }
  for (const std::size_t top_k : {std::size_t{0}, std::size_t{1},
                                   std::size_t{16}, kN + 5}) {
    SCOPED_TRACE(::testing::Message() << "top_k " << top_k);
    std::vector<const core::Move*> want_moves;
    for (const core::Move& mv : moves) {
      if (mv.displacement != 0) want_moves.push_back(&mv);
    }
    std::vector<const core::Move*> got_moves = want_moves;
    std::stable_sort(want_moves.begin(), want_moves.end(),
                     [](const core::Move* x, const core::Move* y) {
                       const auto ax = x->displacement < 0 ? -x->displacement
                                                           : x->displacement;
                       const auto ay = y->displacement < 0 ? -y->displacement
                                                           : y->displacement;
                       if (ax != ay) return ax > ay;
                       return x->index_b < y->index_b;
                     });
    if (want_moves.size() > top_k) want_moves.resize(top_k);
    monitor::keep_top(got_moves, top_k,
                      [](const core::Move* x, const core::Move* y) {
                        return monitor::move_before(*x, *y);
                      });
    EXPECT_EQ(got_moves, want_moves);

    std::vector<std::uint32_t> want_latency(kN);
    for (std::uint32_t i = 0; i < kN; ++i) want_latency[i] = i;
    std::vector<std::uint32_t> got_latency = want_latency;
    std::stable_sort(want_latency.begin(), want_latency.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       const double ax = std::abs(delta[x]);
                       const double ay = std::abs(delta[y]);
                       if (ax != ay) return ax > ay;
                       return positions[x] < positions[y];
                     });
    if (want_latency.size() > top_k) want_latency.resize(top_k);
    monitor::keep_top(got_latency, top_k,
                      [&](std::uint32_t x, std::uint32_t y) {
                        return monitor::latency_before(delta[x], positions[x],
                                                       delta[y], positions[y]);
                      });
    EXPECT_EQ(got_latency, want_latency);
  }
}

// ---- Monitor windows ---------------------------------------------------

/// Occurrence tags from a hash map of its own, not from
/// Trial::make_occurrences_unique: the k-th repeat of a raw id becomes
/// occurrence_id(id, k).
std::vector<core::TrialPacket> rescanned_tags(const core::Trial& raw) {
  std::unordered_map<core::PacketId, std::uint64_t, core::PacketIdHash>
      occurrences;
  std::vector<core::TrialPacket> tagged;
  for (const core::TrialPacket& p : raw.packets()) {
    tagged.push_back({core::occurrence_id(p.id, occurrences[p.id]++), p.time});
  }
  return tagged;
}

/// The window a monitor closes over run positions [b_begin, b_end),
/// rescanned: copies of both slices of the raw runs, each tagged on its
/// own and rebased, compared offline.
core::ComparisonResult rescanned_window(const core::Trial& raw_reference,
                                        const core::Trial& raw_run,
                                        std::size_t b_begin,
                                        std::size_t b_end) {
  const std::vector<core::TrialPacket> ref = rescanned_tags(raw_reference);
  const std::vector<core::TrialPacket> run = rescanned_tags(raw_run);
  const std::size_t a_begin = std::min(b_begin, ref.size());
  const std::size_t a_end = std::min(b_end, ref.size());
  core::Trial wa(std::vector<core::TrialPacket>(
      ref.begin() + static_cast<std::ptrdiff_t>(a_begin),
      ref.begin() + static_cast<std::ptrdiff_t>(a_end)));
  core::Trial wb(std::vector<core::TrialPacket>(
      run.begin() + static_cast<std::ptrdiff_t>(b_begin),
      run.begin() + static_cast<std::ptrdiff_t>(b_end)));
  wa.rebase_to_zero();
  wb.rebase_to_zero();
  core::ComparisonOptions options;
  options.collect_series = true;
  return core::compare_trials(wa, wb, options);
}

/// A run as an experiment's round close builds it: occurrence-tagged and
/// rebased to its first packet.
core::Trial closed_run(const core::Trial& raw) {
  core::Trial trial = raw;
  trial.make_occurrences_unique();
  trial.rebase_to_zero();
  return trial;
}

core::PacketId raw_id(std::uint64_t n) { return core::PacketId{0x5eed, n}; }

/// A raw reference of 900 packets whose ids repeat (every 10th packet
/// reuses the id of the one 5 before it), so occurrence-tagged ids exist
/// on the reference side too.
core::Trial raw_reference() {
  core::Trial t;
  for (std::uint64_t i = 0; i < 900; ++i) {
    const std::uint64_t n = i % 10 == 9 ? i - 5 : i;
    t.push_back({raw_id(n), static_cast<Ns>(i * 50)});
  }
  return t;
}

/// A monitored stream: in-order runs, forward and backward jumps, a
/// reversed segment, repeated ids and ids the reference never saw.
core::Trial jumpy_stream(const core::Trial& reference, std::uint64_t seed) {
  Lcg rng{seed};
  core::Trial t;
  Ns time = 1000;
  std::size_t pos = 0;
  while (t.size() < 1100) {
    time += 20 + static_cast<Ns>(rng.below(60));
    const std::uint64_t roll = rng.below(100);
    if (roll < 4) {
      pos = (pos + 40 + rng.below(80)) % reference.size();  // jump ahead
    } else if (roll < 8) {
      pos = rng.below(pos + 1);  // jump back: repeats earlier ids
    } else if (roll < 12) {
      t.push_back({raw_id(5'000'000 + t.size()), time});  // not in A
      continue;
    } else if (roll < 14) {
      // A reversed run of up to 12 packets.
      const std::size_t len = 2 + rng.below(11);
      const std::size_t end = std::min(reference.size(), pos + len);
      for (std::size_t j = end; j > pos; --j) {
        time += 10;
        t.push_back({reference[j - 1].id, time});
      }
      pos = end % reference.size();
      continue;
    }
    t.push_back({reference[pos].id, time});
    pos = (pos + 1) % reference.size();
  }
  return t;
}

TEST(EvalPlaneOracle, MonitorWindowsMatchRescannedSlices) {
  const core::Trial reference = raw_reference();
  monitor::MonitorConfig cfg;
  cfg.window_packets = 37;
  cfg.top_k = 4;
  monitor::StreamMonitor mon(cfg);
  const core::Trial run_a = closed_run(reference);
  std::size_t checked = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const core::Trial stream = jumpy_stream(reference, seed);
    const core::Trial run_b = closed_run(stream);
    const std::size_t first = mon.windows().size();
    mon.monitor_run(seed == 1 ? "s1" : seed == 2 ? "s2" : "s3",
                    {.reference = run_a,
                     .trial = run_b,
                     .origin = stream.first_time()});
    // Every window, the short last one too, must equal the rescanned
    // one, and report the raw times of its first and last packets.
    for (std::size_t i = first; i < mon.windows().size(); ++i) {
      const monitor::WindowRecord& w = mon.windows()[i];
      const core::ComparisonResult cmp =
          rescanned_window(reference, stream, w.b_begin, w.b_end);
      expect_same_metrics(w.metrics, cmp.metrics);
      EXPECT_EQ(w.common, cmp.common);
      EXPECT_EQ(w.moved, cmp.moved);
      EXPECT_EQ(w.lcs_length, cmp.lcs_length);
      EXPECT_EQ(w.missing, cmp.size_a - cmp.common);
      EXPECT_EQ(w.extra, cmp.size_b - cmp.common);
      EXPECT_EQ(w.first_time_ns, stream[w.b_begin].time);
      EXPECT_EQ(w.last_time_ns, stream[w.b_end - 1].time);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * ((1100u + 36u) / 37u));
}

}  // namespace
}  // namespace choir
