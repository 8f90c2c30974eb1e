// Shared harness for the bench binaries.
//
// bench_paper reproduces the paper's tables and figures, and its other
// rows produce the suite and sweep artifacts: each row runs its
// experiments end to end (record -> N replays -> captures -> Section 3
// metrics) and prints them. Scale defaults to a reduced,
// shape-preserving packet count; set CHOIR_FULL=1 or CHOIR_SCALE=<n> for
// more (see testbed/scale.hpp); suite, flow and group rows pin theirs.
// Besides the text output, a row can emit a machine-readable
// BENCH_<name>.json (see docs/BENCHMARKS.md) with `--json PATH`. The JSON
// is byte-deterministic at a fixed seed/scale and holds no host time.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bench_report.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir::bench {

/// A malformed command line: the binary prints its usage and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Typed `<flag> VALUE` helpers, shared by every bench binary. Each
/// resolves the flag, strips it (and its value) from argv, and returns
/// `fallback` when absent. A count must be a whole decimal number of at
/// least `min` that fits its type: anything else (not a number, a sign,
/// trailing junk, out of range) throws UsageError naming the flag.
std::uint64_t u64_from_args(const char* flag, std::uint64_t fallback,
                            std::uint64_t min, int* argc, char** argv);
int int_from_args(const char* flag, int fallback, int min, int* argc,
                  char** argv);
std::string str_from_args(const char* flag, const std::string& fallback,
                          int* argc, char** argv);

/// Bare `<flag>` presence test (no value); strips the flag when found.
bool flag_from_args(const char* flag, int* argc, char** argv);

/// Run several independent experiment configurations, fanned across a
/// task pool (`jobs`: 0 = auto, 1 = sequential), one whole experiment
/// per task. Results land in config order regardless of completion
/// order, so every report built from them is byte-identical at any job
/// count. `task_seconds`, when non-null, receives the summed host wall
/// time of the experiments (each worker charged its own clock).
std::vector<testbed::ExperimentResult> run_configs(
    const std::vector<testbed::ExperimentConfig>& configs, int jobs = 0,
    double* task_seconds = nullptr);

/// Machine-readable twin of a bench binary's text output.
///
///   bench::Reporter reporter("fig4", &argc, argv);
///   ...
///   reporter.add_case(config, result);
///   reporter.finish();
///
/// The constructor strips `--json PATH`; finish() writes the report
/// there, and is a no-op without the flag — a bench binary never changes
/// behaviour just because JSON output is off.
class Reporter {
 public:
  Reporter(const std::string& name, int* argc, char** argv);

  bool enabled() const { return !path_.empty(); }

  /// Stamp the pinned `packets` as the report's scale, for a row whose
  /// cases set their own packet count (CHOIR_SCALE / CHOIR_FULL are not
  /// stamped: the row does not read them).
  void pin_scale(std::uint64_t packets);

  /// Give the report a suite header: a "suite" key, the pinned scale of
  /// pin_scale and the event ledger (`events.<component>`,
  /// `events.total`) as counters of every case added afterwards.
  void pin_suite(std::uint64_t packets);

  /// Record a custom configuration's run. `case_name` overrides the
  /// preset name when one environment appears in several cases.
  void add_case(const testbed::ExperimentConfig& config,
                const testbed::ExperimentResult& result,
                const std::string& case_name = {});

  /// Record a free-form deterministic scalar under "metrics".
  void add_metric(const std::string& path, double value);

  /// Write the report; returns the path written ("" when disabled).
  std::string finish();

 private:
  analysis::BenchReport report_;
  std::string path_;
  bool ledger_ = false;  ///< add the event ledger to each case
};

}  // namespace choir::bench
