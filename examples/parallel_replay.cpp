// Parallel replay (the paper's Figure 1 scenario): an incoming packet
// stream is split across two replay nodes whose outputs merge at a
// single recorder. On each replay the ordering should stay constant up
// to the nodes' clock synchronization — this example shows how imperfect
// sync moves *whole bursts* between runs, and how the O metric and the
// edit-script distances expose it.
//
// Build & run:  ./build/examples/parallel_replay
#include <cstdio>

#include "analysis/stats.hpp"
#include "reordering.hpp"
#include "testbed/experiment.hpp"

using namespace choir;

int main() {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_dual();  // two replayers at 20 Gbps each
  cfg.packets = 30'000;
  cfg.runs = 4;
  cfg.seed = 3;
  cfg.collect_series = true;
  cfg.keep_captures = true;  // for the reordering deep-dive below

  const auto result = testbed::run_experiment(cfg);
  std::printf("dual-replayer topology: %d replayers, %llu packets merged "
              "at the recorder\n",
              cfg.env.replayers,
              static_cast<unsigned long long>(result.recorded_packets));

  char run = 'B';
  for (const auto& c : result.comparisons) {
    const auto dist = analysis::summarize(c.series.move_distance);
    const auto mag = analysis::summarize_abs(c.series.move_distance);
    std::printf(
        "run %c: O=%.4f, %zu of %zu packets moved (%.1f%%), "
        "displacement mean %.0f (abs %.0f, min %lld, max %lld)\n",
        run++, c.metrics.ordering, c.moved, c.common,
        100.0 * static_cast<double>(c.moved) /
            static_cast<double>(c.common),
        dist.mean, mag.mean, static_cast<long long>(dist.min),
        static_cast<long long>(dist.max));
  }

  // The signature observation from Section 6.2: moved packets travel as
  // whole bursts — their displacements cluster tightly (small sigma
  // relative to the mean magnitude).
  const auto& c = result.comparisons.back();
  if (!c.series.move_distance.empty()) {
    const auto mag = analysis::summarize_abs(c.series.move_distance);
    std::printf(
        "burst-movement signature: abs displacement sigma/mean = %.2f "
        "(small => packets moved in blocks)\n",
        mag.stddev / mag.mean);
  }

  // Deep dive with the reordering toolkit (the Bellardo-Savage-style view
  // the paper's related work points to): block decomposition plus the
  // reorder probability as a function of packet spacing.
  const auto trial_a = testbed::rebased_trial(result.captures[0]);
  const auto trial_b = testbed::rebased_trial(result.captures.back());
  const auto alignment = core::align_trials(trial_a, trial_b);
  const auto blocks = core::coalesce_move_blocks(alignment);
  std::printf("moves coalesce into %zu blocks; %.1f%% of moved packets "
              "travel in blocks of >= 8\n",
              blocks.size(),
              100.0 * core::block_move_fraction(alignment, 8));
  const auto spacing = core::reorder_probability_by_spacing(alignment, 16);
  std::printf("reorder probability by A-rank spacing:");
  for (std::size_t k = 0; k < spacing.probability.size(); k += 3) {
    std::printf("  %zu:%.3f", k + 1, spacing.probability[k]);
  }
  std::printf("\n");
  return 0;
}
