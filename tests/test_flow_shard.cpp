// Flow sharding's determinism contract, in the mold of
// test_parallel_determinism: worker-private shard sets merged in
// submission order, and shards owned concurrently by pool workers, must
// reproduce the sequential classifier exactly — same flows, same
// first-seen order, same counters, same per-packet ids, same per-flow κ.
// The CI TSan job selects these by name (-R FlowShard) to race-check the
// concurrent-shard path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/task_pool.hpp"
#include "flow/flow_shard.hpp"
#include "flow/flow_table.hpp"
#include "testbed/experiment.hpp"
#include "trace/flow_classify.hpp"

namespace choir::flow {
namespace {

struct Arrival {
  FlowKey key;
  std::uint32_t wire_len;
  Ns time;
};

/// A deterministic arrival stream over `flows` distinct keys, revisiting
/// each several times so counters actually fold.
std::vector<Arrival> arrival_stream(std::uint32_t flows,
                                    std::size_t packets) {
  std::vector<Arrival> stream;
  stream.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    const auto n = static_cast<std::uint32_t>((i * 7919) % flows);
    Arrival a;
    a.key.src_ip = (10u << 24) | 1u | ((n / 16384u) << 8);
    a.key.dst_ip = (10u << 24) | 4u;
    a.key.src_port = static_cast<std::uint16_t>(7000u + n % 16384u);
    a.key.dst_port = 7001;
    a.wire_len = 64 + n % 32;
    a.time = static_cast<Ns>(i) * 100;
    stream.push_back(a);
  }
  return stream;
}

void expect_matches_sequential(const std::vector<GlobalFlow>& merged,
                               const FlowTable& sequential) {
  ASSERT_EQ(merged.size(), sequential.size());
  for (std::size_t f = 0; f < merged.size(); ++f) {
    const auto id = static_cast<FlowId>(f);
    EXPECT_EQ(merged[f].key, sequential.key_of(id)) << "flow " << f;
    const auto& got = merged[f].stats;
    const auto& want = sequential.stats_of(id);
    EXPECT_EQ(got.packets, want.packets) << "flow " << f;
    EXPECT_EQ(got.bytes, want.bytes) << "flow " << f;
    EXPECT_EQ(got.first_index, want.first_index) << "flow " << f;
    EXPECT_EQ(got.first_seen, want.first_seen) << "flow " << f;
    EXPECT_EQ(got.last_seen, want.last_seen) << "flow " << f;
  }
}

TEST(FlowShard, MergedWorkerSetsMatchTheSequentialClassifier) {
  // Four workers classify disjoint chunks of one stream into private
  // shard sets (global arrival indices); merging in submission order and
  // enumerating by first arrival must equal one sequential FlowTable.
  const auto stream = arrival_stream(/*flows=*/800, /*packets=*/6000);
  FlowTable sequential;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    sequential.classify(stream[i].key, stream[i].wire_len, stream[i].time, i);
  }

  constexpr int kShards = 8;
  constexpr std::size_t kWorkers = 4;
  const std::size_t chunk = (stream.size() + kWorkers - 1) / kWorkers;
  std::vector<FlowShardSet> sets;
  sets.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) sets.emplace_back(kShards);
  parallel_for_indexed(static_cast<int>(kWorkers), kWorkers,
                       [&](std::size_t w) {
                         FlowShardSet& mine = sets[w];
                         const std::size_t lo = w * chunk;
                         const std::size_t hi =
                             std::min(stream.size(), lo + chunk);
                         for (std::size_t i = lo; i < hi; ++i) {
                           mine.classify(stream[i].key, stream[i].wire_len,
                                         stream[i].time, i);
                         }
                       });

  FlowShardSet merged(kShards);
  for (const auto& set : sets) merged.merge_from(set);
  EXPECT_EQ(merged.size(), sequential.size());
  expect_matches_sequential(merged_flows(merged), sequential);
}

TEST(FlowShard, ConcurrentShardOwnersAreRaceFreeAndDeterministic) {
  // The classify_capture_sharded access pattern distilled: one SHARED
  // shard set, each pool worker scanning the whole stream but touching
  // only the shards it owns. TSan watches this for races; the merged
  // view must still equal the sequential table.
  const auto stream = arrival_stream(/*flows=*/500, /*packets=*/4000);
  FlowTable sequential;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    sequential.classify(stream[i].key, stream[i].wire_len, stream[i].time, i);
  }

  constexpr int kShards = 8;
  FlowShardSet shared(kShards);
  parallel_for_indexed(/*jobs=*/4, kShards, [&](std::size_t s) {
    FlowTable& mine = shared.shard(static_cast<int>(s));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (shard_of_key(stream[i].key, kShards) != static_cast<int>(s)) {
        continue;
      }
      mine.classify(stream[i].key, stream[i].wire_len, stream[i].time, i);
    }
  });

  EXPECT_EQ(shared.size(), sequential.size());
  expect_matches_sequential(merged_flows(shared), sequential);
}

TEST(FlowShard, ShardCountDoesNotChangeTheMergedView) {
  const auto stream = arrival_stream(/*flows=*/300, /*packets=*/2000);
  std::vector<std::vector<GlobalFlow>> views;
  for (const int shards : {1, 3, 8, 16}) {
    FlowShardSet set(shards);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      set.classify(stream[i].key, stream[i].wire_len, stream[i].time, i);
    }
    views.push_back(merged_flows(set));
  }
  for (std::size_t v = 1; v < views.size(); ++v) {
    ASSERT_EQ(views[v].size(), views[0].size());
    for (std::size_t f = 0; f < views[v].size(); ++f) {
      EXPECT_EQ(views[v][f].key, views[0][f].key);
      EXPECT_EQ(views[v][f].stats.packets, views[0][f].stats.packets);
      EXPECT_EQ(views[v][f].stats.first_index, views[0][f].stats.first_index);
    }
  }
}

TEST(FlowShard, ExperimentFlowEvaluationIsJobCountInvariant) {
  // End to end through the testbed: a flow-enabled experiment's sharded
  // capture classification and per-flow κ comparisons at eval_jobs 4
  // must be bit-identical to the sequential run, and the sharded capture
  // classifier must agree with the sequential reference packet for
  // packet.
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.packets = 4000;
  cfg.runs = 3;
  cfg.seed = 17;
  cfg.collect_series = true;
  cfg.keep_captures = true;
  cfg.flow.enabled = true;
  cfg.flow.flows = 256;
  cfg.flow.shards = 8;

  cfg.eval_jobs = 1;
  const auto sequential = testbed::run_experiment(cfg);
  cfg.eval_jobs = 4;
  const auto parallel = testbed::run_experiment(cfg);

  EXPECT_GE(sequential.flow_count, 200u);  // fan-out actually happened
  EXPECT_EQ(sequential.flow_count, parallel.flow_count);
  EXPECT_EQ(sequential.flow_unclassified, parallel.flow_unclassified);
  ASSERT_EQ(sequential.flow_comparisons.size(), 2u);
  ASSERT_EQ(parallel.flow_comparisons.size(), 2u);
  for (std::size_t c = 0; c < sequential.flow_comparisons.size(); ++c) {
    const auto& fs = sequential.flow_comparisons[c];
    const auto& fp = parallel.flow_comparisons[c];
    ASSERT_EQ(fs.flows.size(), fp.flows.size());
    for (std::size_t f = 0; f < fs.flows.size(); ++f) {
      EXPECT_EQ(fs.flows[f].key, fp.flows[f].key);
      EXPECT_EQ(fs.flows[f].packets_a, fp.flows[f].packets_a);
      EXPECT_EQ(fs.flows[f].packets_b, fp.flows[f].packets_b);
      EXPECT_EQ(fs.flows[f].metrics.kappa, fp.flows[f].metrics.kappa);
    }
    EXPECT_EQ(fs.aggregate.worst, fp.aggregate.worst);
    EXPECT_EQ(fs.aggregate.p50, fp.aggregate.p50);
    EXPECT_EQ(fs.aggregate.p90, fp.aggregate.p90);
    EXPECT_EQ(fs.aggregate.p99, fp.aggregate.p99);
    EXPECT_EQ(fs.aggregate.weighted_mean, fp.aggregate.weighted_mean);
  }

  // Sharded vs sequential classification of the same capture bytes.
  ASSERT_FALSE(sequential.captures.empty());
  const auto ref = trace::classify_capture(sequential.captures[0]);
  const auto sharded = trace::classify_capture_sharded(
      sequential.captures[0], cfg.flow.shards, /*jobs=*/4);
  EXPECT_EQ(ref.per_packet, sharded.per_packet);
  EXPECT_EQ(ref.table.size(), sharded.table.size());
  EXPECT_EQ(ref.unclassified, sharded.unclassified);
  for (FlowId id = 0; id < ref.table.size(); ++id) {
    EXPECT_EQ(ref.table.key_of(id), sharded.table.key_of(id));
    EXPECT_EQ(ref.table.stats_of(id).packets,
              sharded.table.stats_of(id).packets);
  }
}

}  // namespace
}  // namespace choir::flow
