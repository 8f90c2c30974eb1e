// Machine-readable bench results: the BENCH_<name>.json schema, its
// byte-deterministic writer, and the exact leaf diff behind
// `choirctl bench --compare`.
//
// Schema (docs/BENCHMARKS.md documents it for consumers):
//
//   {
//     "schema": 1,
//     "name": "fig4",                 // report name (BENCH_<name>.json)
//     "suite": "paper-figures",       // optional grouping
//     "scale": {"packets": N, "choir_full": bool, "choir_scale": N|null},
//     "cases": [                      // one per environment/config run
//       {"env": "local-single", "seed": 2025, "packets": N, "runs": 5,
//        "rate_gbps": 40, "frame_bytes": 1400, "replayers": 1,
//        "sim": {                     // deterministic in (seed, scale)
//          "throughput_gbps": ..., "throughput_mpps": ...,
//          "trial_ms": ..., "recorded_packets": N,
//          "recorder_rx_drops": N, "replay_tx_drops": N,
//          "mean": {"U":..,"O":..,"I":..,"L":..,"kappa":..},
//          "runs": [{"label":"B","U":..,..,"kappa":..,
//                    "iat_within_10ns": .., "capture_size": N}, ...]},
//        "counters": {"name": value, ...}},   // optional, sorted names
//       ...
//     ],
//     "metrics": {"flat.dotted.path": value, ...}   // optional extras
//   }
//
// Byte determinism is the contract: fixed key order, %.17g doubles,
// NaN/inf rejected at write time. Nothing host-timed is ever written, so
// the committed bytes are the whole gate; the leaf diff only explains a
// byte mismatch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/metrics.hpp"

namespace choir::analysis {

struct BenchRunRow {
  std::string label;  ///< "B".."E"
  core::ConsistencyMetrics metrics;
  double iat_within_10ns = 0.0;  ///< fraction in [0,1]
  std::uint64_t capture_size = 0;
};

struct BenchCase {
  std::string env;
  std::uint64_t seed = 0;
  std::uint64_t packets = 0;
  int runs = 0;
  double rate_gbps = 0.0;
  std::uint32_t frame_bytes = 0;
  int replayers = 0;

  // Simulated-timeline results (deterministic in seed + scale).
  double throughput_gbps = 0.0;
  double throughput_mpps = 0.0;
  double trial_ms = 0.0;
  std::uint64_t recorded_packets = 0;
  std::uint64_t recorder_rx_drops = 0;
  std::uint64_t replay_tx_drops = 0;
  core::ConsistencyMetrics mean;
  std::vector<BenchRunRow> run_rows;

  /// Extra deterministic scalars (sorted by name before writing).
  std::vector<std::pair<std::string, double>> counters;
};

struct BenchReport {
  std::string name;
  std::string suite;
  std::uint64_t scale_packets = 0;
  bool choir_full = false;
  bool has_choir_scale = false;
  std::uint64_t choir_scale = 0;
  std::vector<BenchCase> cases;
  /// Free-form deterministic metrics (micro-bench counters etc.),
  /// written in insertion order under "metrics".
  std::vector<std::pair<std::string, double>> metrics;
};

/// Serialize the report (deterministic; see header comment). Throws
/// choir::Error on NaN/inf anywhere in the numeric payload.
std::string to_json(const BenchReport& report);

// --- Comparison ---------------------------------------------------------

/// Flatten every scalar leaf of a parsed report into a dotted path and
/// its text as written: cases are keyed by env name
/// (`cases.local-single.sim.mean.kappa`), run rows by label, counters by
/// counter name. Numbers keep their token, so a change in the last
/// printed digit is a changed leaf; strings, bools and nulls appear as
/// JSON text.
std::vector<std::pair<std::string, std::string>> flatten_leaves(
    const json::Value& report);

enum class DiffStatus {
  kSame,     ///< identical text in both reports
  kChanged,  ///< present in both with different text (fails)
  kMissing,  ///< in baseline, absent from current (fails)
  kAdded,    ///< new in current (reported, never fails)
};

struct LeafDiff {
  std::string path;
  std::string baseline;  ///< empty when added
  std::string current;   ///< empty when missing
  DiffStatus status = DiffStatus::kSame;
};

struct CompareResult {
  std::vector<LeafDiff> diffs;  ///< every leaf, baseline order then added
  std::size_t changed = 0;
  std::size_t missing = 0;
  std::size_t added = 0;
  bool ok() const { return changed == 0 && missing == 0; }
};

/// Diff two parsed reports leaf by leaf. The baseline drives the order.
CompareResult compare_reports(const json::Value& baseline,
                              const json::Value& current);

/// Render the changed, missing and added leaves, then a one-line count.
std::string render_compare(const CompareResult& result);

/// Diff every BENCH_*.json in `baseline_dir` against its namesake in
/// `current_dir` (a missing file fails). Appends the account to
/// *out_text and returns the number of failing files (0 == identical
/// leaves everywhere).
int compare_bench_dirs(const std::string& baseline_dir,
                       const std::string& current_dir, std::string* out_text);

// --- Host-time repetitions ---------------------------------------------
//
// PASTRAMI-style reporting of host time (PAPERS.md): a single host-time
// number from a software router says nothing; only the distribution over
// repetitions does. `--reps N` samples a metric N times and prints its
// p25/p50/p75 with a spread label. It never gates: host time depends on
// the machine, and the committed bytes are the gate.

/// One metric's repetition samples.
struct StatSample {
  std::string path;
  std::vector<double> values;  ///< one per repetition, collection order
};

enum class StatStatus {
  kStable,    ///< enough reps and a spread inside the gate
  kUnstable,  ///< too few reps or too wide a spread to trust
};

const char* to_string(StatStatus status);

struct StatOptions {
  std::size_t min_reps = 5;  ///< fewer samples -> kUnstable
  /// Instability gate: 100 * (p75 - p25) / |median| above this is
  /// kUnstable. PASTRAMI's observation is that run-to-run spread, not
  /// the mean, is the first-class result; 20% is a loose default for
  /// shared hosts.
  double spread_gate_pct = 20.0;
};

struct StatVerdict {
  std::string path;
  std::size_t reps = 0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double spread_pct = 0.0;  ///< 100 * (p75 - p25) / |median|
  StatStatus status = StatStatus::kUnstable;
};

struct StatResult {
  std::vector<StatVerdict> verdicts;  ///< sample order
  std::size_t unstable = 0;
};

/// Quartiles and spread label of each sampled metric.
StatResult statistical_verdicts(const std::vector<StatSample>& samples,
                                const StatOptions& options = {});

/// Render a fixed-width verdict table in sample order.
std::string render_stat_verdicts(const StatResult& result);

}  // namespace choir::analysis
