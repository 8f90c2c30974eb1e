#include "flow/flow_kappa.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/stats.hpp"
#include "common/task_pool.hpp"
#include "core/compare_scratch.hpp"
#include "flow/flow_demux.hpp"

namespace choir::flow {

namespace {

/// Flows compared in chunks of this many per task: 100k single-flow
/// tasks would pay one std::function allocation per flow, while chunks
/// amortize it without affecting results (slots are index-addressed).
constexpr std::size_t kFlowsPerTask = 1024;

void compare_into(const core::Trial& a, std::span<const FlowId> ids_a,
                  const core::Trial& b, std::span<const FlowId> ids_b,
                  std::size_t flow_count, int jobs, FlowSetComparison* out) {
  const DemuxResult da = demux_trial(a, ids_a, flow_count);
  const DemuxResult db = demux_trial(b, ids_b, flow_count);
  out->unclassified_a = da.unclassified;
  out->unclassified_b = db.unclassified;

  out->flows.resize(flow_count);
  core::ComparisonOptions options;  // metrics only: no series, no alignment
  const std::size_t chunks =
      (flow_count + kFlowsPerTask - 1) / kFlowsPerTask;
  parallel_for_indexed(jobs, chunks, [&](std::size_t c) {
    // One comparison arena and one pair of flow trials per chunk: their
    // buffers amortize across the up to kFlowsPerTask flows a task
    // compares (results are scratch-invariant, so sharding stays
    // byte-deterministic at any job count).
    core::CompareScratch scratch;
    core::Trial ta;
    core::Trial tb;
    const std::size_t lo = c * kFlowsPerTask;
    const std::size_t hi = std::min(flow_count, lo + kFlowsPerTask);
    for (std::size_t f = lo; f < hi; ++f) {
      FlowComparison& fc = out->flows[f];
      fc.id = static_cast<FlowId>(f);
      fc.packets_a = static_cast<std::uint32_t>(da.flow(fc.id).size());
      fc.packets_b = static_cast<std::uint32_t>(db.flow(fc.id).size());
      fc.in_a = fc.packets_a > 0;
      fc.in_b = fc.packets_b > 0;
      if (fc.matched()) {
        da.load_rebased(a, fc.id, ta);
        db.load_rebased(b, fc.id, tb);
        fc.metrics = core::compare_trials(ta, tb, options, scratch).metrics;
      } else if (fc.in_a || fc.in_b) {
        // One-sided flow: Eq. 5 against an empty trial (see header).
        fc.metrics.uniqueness = 1.0;
        fc.metrics.kappa = core::kappa_of(1.0, 0.0, 0.0, 0.0);
      }
      // Flows in neither trial (retired ids) keep default metrics and
      // are skipped by aggregate_flows.
    }
  });
  out->aggregate = aggregate_flows(out->flows);
}

}  // namespace

FlowAggregate aggregate_flows(std::span<const FlowComparison> flows) {
  FlowAggregate agg;
  std::vector<double> kappas;
  kappas.reserve(flows.size());
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  double sum = 0.0;
  for (const FlowComparison& fc : flows) {
    if (!fc.in_a && !fc.in_b) continue;
    ++agg.flows;
    if (fc.matched()) {
      ++agg.matched;
    } else if (fc.in_a) {
      ++agg.only_a;
    } else {
      ++agg.only_b;
    }
    kappas.push_back(fc.metrics.kappa);
    sum += fc.metrics.kappa;
    const double weight =
        static_cast<double>(fc.packets_a) + static_cast<double>(fc.packets_b);
    weighted_sum += weight * fc.metrics.kappa;
    weight_total += weight;
  }
  if (kappas.empty()) {
    // No flows at all: vacuously consistent, matching κ of two empty
    // trials (compare_trials grades them U = 0, κ = 1).
    agg.worst = agg.p50 = agg.p90 = agg.p99 = agg.p999 = 1.0;
    agg.weighted_mean = agg.mean = 1.0;
    return agg;
  }
  std::sort(kappas.begin(), kappas.end());
  agg.worst = kappas.front();
  agg.p50 = stats::percentile_sorted(kappas, 50.0);
  // The tail of a κ distribution is its *low* end: p90 is the value 90%
  // of flows are at-or-above, so it reads off the 10th percentile of the
  // ascending sample (p99 likewise).
  agg.p90 = stats::percentile_sorted(kappas, 10.0);
  agg.p99 = stats::percentile_sorted(kappas, 1.0);
  agg.p999 = stats::p999_low_sorted(kappas);
  agg.weighted_mean = weight_total > 0.0 ? weighted_sum / weight_total : 1.0;
  agg.mean = sum / static_cast<double>(kappas.size());
  return agg;
}

FlowSetComparison compare_flows_by_id(const core::Trial& a,
                                      std::span<const FlowId> ids_a,
                                      const core::Trial& b,
                                      std::span<const FlowId> ids_b,
                                      std::size_t flow_count, int jobs) {
  FlowSetComparison out;
  compare_into(a, ids_a, b, ids_b, flow_count, jobs, &out);
  return out;
}

FlowSetComparison compare_flows(const core::Trial& a, const FlowTable& table_a,
                                std::span<const FlowId> ids_a,
                                const core::Trial& b, const FlowTable& table_b,
                                std::span<const FlowId> ids_b, int jobs) {
  // Remap B's ids into A's id space by key; B-only flows are appended
  // past A's count in B's first-seen order.
  const std::size_t a_count = table_a.size();
  std::vector<FlowId> remap(table_b.size(), kNoFlow);
  std::size_t extras = 0;
  for (FlowId bid = 0; bid < table_b.size(); ++bid) {
    const FlowId aid = table_a.lookup(table_b.key_of(bid));
    if (aid != kNoFlow) {
      remap[bid] = aid;
    } else {
      remap[bid] = static_cast<FlowId>(a_count + extras);
      ++extras;
    }
  }
  std::vector<FlowId> ids_b_mapped(ids_b.size(), kNoFlow);
  for (std::size_t i = 0; i < ids_b.size(); ++i) {
    if (ids_b[i] != kNoFlow) ids_b_mapped[i] = remap[ids_b[i]];
  }

  FlowSetComparison out;
  compare_into(a, ids_a, b, ids_b_mapped, a_count + extras, jobs, &out);

  // Attach keys: ids below a_count come from A's table, the rest from B's.
  std::vector<FlowId> extra_key(extras, kNoFlow);
  for (FlowId bid = 0; bid < table_b.size(); ++bid) {
    if (remap[bid] >= a_count) extra_key[remap[bid] - a_count] = bid;
  }
  for (std::size_t f = 0; f < out.flows.size(); ++f) {
    out.flows[f].key = f < a_count
                           ? table_a.key_of(static_cast<FlowId>(f))
                           : table_b.key_of(extra_key[f - a_count]);
  }
  return out;
}

}  // namespace choir::flow
