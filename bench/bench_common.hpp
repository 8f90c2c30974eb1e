// Shared harness for the bench binaries.
//
// bench_paper reproduces the paper's tables and figures, and its other
// rows produce the suite and sweep artifacts: each row runs its
// experiments end to end (record -> N replays -> captures -> Section 3
// metrics) and prints them. Scale defaults to a reduced,
// shape-preserving packet count; set CHOIR_FULL=1 or CHOIR_SCALE=<n> for
// more (see testbed/scale.hpp); suite, flow and group rows pin theirs.
// Besides the text output, a binary can emit a machine-readable
// BENCH_<name>.json (see docs/BENCHMARKS.md): pass `--json PATH` or set
// CHOIR_BENCH_JSON=<dir>. The JSON is byte-deterministic at a fixed
// seed/scale; host-time fields are only included with
// CHOIR_BENCH_HOST_TIME=1 (they are nondeterministic by nature).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/bench_report.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir::bench {

/// Resolve (and strip, so later arg parsers never see it) a `--json
/// PATH` flag; falls back to CHOIR_BENCH_JSON=<dir>, which maps to
/// <dir>/BENCH_<name>.json. Empty string means JSON output is off.
std::string json_path_from_args(const std::string& name, int* argc,
                                char** argv);

/// Resolve (and strip) a `--jobs N` flag. Returns 0 (auto: CHOIR_JOBS,
/// else hardware concurrency — see choir::resolve_jobs) when absent.
int jobs_from_args(int* argc, char** argv);

/// Typed `<flag> VALUE` helpers, shared by every bench binary instead
/// of hand-rolled strcmp scans. Each resolves the flag, strips it (and
/// its value) from argv, and returns `fallback` when absent.
std::uint64_t u64_from_args(const char* flag, std::uint64_t fallback,
                            int* argc, char** argv);
int int_from_args(const char* flag, int fallback, int* argc, char** argv);
std::string str_from_args(const char* flag, const std::string& fallback,
                          int* argc, char** argv);

/// Bare `<flag>` presence test (no value); strips the flag when found.
bool flag_from_args(const char* flag, int* argc, char** argv);

/// Run several independent experiment configurations, fanned across a
/// task pool (`jobs` as in choirctl: 0 = auto, 1 = sequential). Results
/// land in config order regardless of completion order, so every report
/// built from them is byte-identical at any job count. `task_seconds`,
/// when non-null, receives the summed host wall time of the
/// experiments (each worker charged its own clock).
std::vector<testbed::ExperimentResult> run_configs(
    const std::vector<testbed::ExperimentConfig>& configs, int jobs = 0,
    double* task_seconds = nullptr);

/// The host-throughput repetition flags: `--reps N` (default
/// `default_reps`), `--stats-baseline FILE` (a STATS_*.json to gate
/// against) and `--stats-out FILE` (write the medians as a baseline).
struct HostStats {
  int reps = 1;
  std::string baseline;
  std::string out;
  /// A single run with no baseline and no output file judges nothing.
  bool judged() const {
    return reps > 1 || !baseline.empty() || !out.empty();
  }
};
HostStats host_stats_from_args(int default_reps, int* argc, char** argv);

/// Judge a host-time sample PASTRAMI-style (docs/BENCHMARKS.md): print
/// the verdicts, gated against `stats.baseline` medians when set, and
/// write `stats.out` when set. Returns the exit status: 0, or 1 on a
/// regression or an unreadable baseline.
int judge_host_sample(const analysis::StatSample& sample,
                      const HostStats& stats);

/// Machine-readable twin of a bench binary's text output.
///
///   bench::Reporter reporter("fig4", &argc, argv);
///   ...
///   reporter.add_case(config, result);
///   reporter.finish();
///
/// finish() writes BENCH_<name>.json when `--json` / CHOIR_BENCH_JSON
/// selected a destination, and is a no-op otherwise — a bench binary
/// never changes behaviour just because JSON output is off.
class Reporter {
 public:
  Reporter(const std::string& name, int* argc, char** argv);

  bool enabled() const { return !path_.empty(); }

  /// Give the report a suite header: a "suite" key, the pinned
  /// `packets` as its scale (CHOIR_SCALE / CHOIR_FULL are not stamped),
  /// no host section, and the event ledger (`events.<component>`,
  /// `events.total`) as counters of every case added afterwards.
  void pin_suite(std::uint64_t packets);

  /// Record a custom configuration's run. `case_name` overrides the
  /// preset name when one environment appears in several cases.
  void add_case(const testbed::ExperimentConfig& config,
                const testbed::ExperimentResult& result,
                const std::string& case_name = {});

  /// Record a free-form deterministic scalar under "metrics".
  void add_metric(const std::string& path, double value);

  /// Record a host-time scalar (under "metrics" with a host. prefix,
  /// which the comparator treats as report-only). Dropped entirely
  /// unless CHOIR_BENCH_HOST_TIME=1, keeping default output
  /// byte-deterministic.
  void add_host_metric(const std::string& path, double value);

  /// Write the report; returns the path written ("" when disabled).
  std::string finish();

 private:
  analysis::BenchReport report_;
  std::string path_;
  bool ledger_ = false;    ///< add the event ledger to each case
  double start_ms_ = 0.0;  ///< host clock at construction (host gate only)
};

}  // namespace choir::bench
