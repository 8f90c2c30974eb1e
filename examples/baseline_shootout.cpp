// Baseline shootout: replay the same recording with all four engines —
// Choir's TSC pacing, a gettimeofday busy-wait, tcpreplay-style timer
// sleeps, and MoonGen-style invalid-packet gap filling — and rank them by
// consistency on a quiet dedicated path. (The full shared-NIC failure
// analysis lives in `bench_paper ablation`.)
//
// Build & run:  ./build/examples/baseline_shootout
#include <cstdio>

#include "analysis/report.hpp"
#include "testbed/experiment.hpp"

using namespace choir;

int main() {
  struct Entry {
    const char* name;
    testbed::ReplayEngine engine;
  };
  const Entry engines[] = {
      {"choir (TSC busy loop)", testbed::ReplayEngine::kChoir},
      {"gap-fill (MoonGen-style)", testbed::ReplayEngine::kGapFill},
      {"busy-wait (us clock)", testbed::ReplayEngine::kBusyWait},
      {"sleep (tcpreplay-style)", testbed::ReplayEngine::kSleep},
  };

  analysis::TextTable table({"Engine", "kappa", "I", "IAT +-10ns"});
  for (const Entry& entry : engines) {
    testbed::ExperimentConfig cfg;
    cfg.env = testbed::fabric_dedicated_80();
    cfg.packets = 20'000;
    cfg.runs = 4;
    cfg.seed = 21;
    cfg.engine = entry.engine;
    const auto result = run_experiment(cfg);

    double within = 0;
    for (const auto& c : result.comparisons) {
      within += c.fraction_iat_within(10.0);
    }
    within /= static_cast<double>(result.comparisons.size());

    char kappa_cell[16], i_cell[16], within_cell[16];
    std::snprintf(kappa_cell, sizeof(kappa_cell), "%.4f",
                  result.mean.kappa);
    std::snprintf(i_cell, sizeof(i_cell), "%.4f", result.mean.iat);
    std::snprintf(within_cell, sizeof(within_cell), "%.1f%%",
                  100.0 * within);
    table.add_row({entry.name, kappa_cell, i_cell, within_cell});
    std::fprintf(stderr, "replayed with %s\n", entry.name);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "Expected ranking on a quiet dedicated path: gap-fill and Choir at "
      "the top, busy-wait close behind, sleep far worse.\n");
  return 0;
}
