// Capture workflow: the paper's artifact loop, end to end —
//   record a replay   -> save each run as a native trace and as a pcap
//   reload the traces -> recompute the metrics offline, identically.
// This is how results move between machines (dpdkcap writes captures on
// the testbed; analysis happens wherever).
//
// Build & run:  ./build/examples/capture_workflow <output-dir>
// (the directory is created if missing). Exits 1 when an offline κ
// differs from the online one, or when a file cannot be written or read.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "testbed/experiment.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

using namespace choir;

namespace {

int run(const std::string& dir) {
  std::filesystem::create_directories(dir);

  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.packets = 10'000;
  cfg.runs = 3;
  cfg.seed = 9;
  cfg.keep_captures = true;  // we want the raw captures this time
  const auto result = run_experiment(cfg);

  // Save every run, both formats.
  std::vector<std::string> traces;
  for (std::size_t r = 0; r < result.captures.size(); ++r) {
    const std::string base = dir + "/choir_run_" + std::to_string(r);
    trace::write_trace(result.captures[r], base + ".trc");
    trace::write_pcap(result.captures[r], base + ".pcap");
    traces.push_back(base + ".trc");
    std::printf("saved %s.trc and %s.pcap (%zu packets)\n", base.c_str(),
                base.c_str(), result.captures[r].size());
  }

  // Offline analysis: reload and recompute kappa from files alone.
  bool identical = true;
  const auto trial_a =
      testbed::rebased_trial(trace::MappedCapture(traces[0]));
  for (std::size_t r = 1; r < traces.size(); ++r) {
    const auto trial_b =
        testbed::rebased_trial(trace::MappedCapture(traces[r]));
    const auto offline = core::compare_trials(trial_a, trial_b);
    const double online = result.comparisons[r - 1].metrics.kappa;
    std::printf("run %zu: offline kappa %.6f, online kappa %.6f (%s)\n", r,
                offline.metrics.kappa, online,
                offline.metrics.kappa == online ? "identical" : "DIFFER");
    identical = identical && offline.metrics.kappa == online;
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: capture_workflow <output-dir>\n");
    return 2;
  }
  try {
    return run(argv[1]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "capture_workflow: %s\n", error.what());
    return 1;
  }
}
