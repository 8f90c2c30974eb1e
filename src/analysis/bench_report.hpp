// Machine-readable bench results: the BENCH_<name>.json schema, its
// byte-deterministic writer, and the tolerance-band comparator behind
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
//     "metrics": {"flat.dotted.path": value, ...},  // optional extras
//     "host": {...}                   // ONLY with CHOIR_BENCH_HOST_TIME=1
//   }
//
// Byte determinism is the contract: fixed key order, %.17g doubles,
// NaN/inf rejected at write time. Everything under "host" is
// nondeterministic host timing and is therefore (a) omitted by default
// so two same-seed runs produce identical bytes, and (b) never gated by
// the comparator — host metrics are report-only.
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

/// Per-stage host-time attribution (span-profiler derived).
struct BenchStage {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  double self_ns_per_packet = 0.0;
};

/// Host section: everything here is nondeterministic and only written
/// when `include_host` is set (CHOIR_BENCH_HOST_TIME=1).
struct BenchHost {
  std::string hostname;
  std::string compiler;
  unsigned hardware_threads = 0;
  double wall_ms = 0.0;
  std::vector<BenchStage> stages;
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
  bool include_host = false;
  BenchHost host;
};

/// Serialize the report (deterministic; see header comment). Throws
/// choir::Error on NaN/inf anywhere in the numeric payload.
std::string to_json(const BenchReport& report);

// --- Comparison ---------------------------------------------------------

/// Flatten every numeric leaf of a parsed report into dotted paths:
/// cases are keyed by env name (`case.local-single.sim.mean.kappa`),
/// run rows by label, counters by counter name. "host.*" paths flatten
/// too — the comparator classifies them as report-only.
std::vector<std::pair<std::string, double>> flatten_metrics(
    const json::Value& report);

enum class DiffStatus {
  kOk,          ///< within tolerance
  kRegressed,   ///< sim metric outside its tolerance band
  kMissing,     ///< in baseline, absent from current (fails the gate)
  kAdded,       ///< new in current (reported, never fails)
  kHostOnly,    ///< host-time metric; differences are report-only
};

struct MetricDiff {
  std::string path;
  double baseline = 0.0;
  double current = 0.0;
  double delta_pct = 0.0;  ///< 100 * |cur - base| / max(|base|, eps)
  DiffStatus status = DiffStatus::kOk;
};

struct CompareOptions {
  /// Relative tolerance (percent) for simulated metrics. The simulation
  /// is deterministic in (seed, scale); the band only absorbs
  /// libm/compiler variation across hosts, so it is tight by default.
  double sim_tolerance_pct = 0.1;
  /// Absolute slack for metrics whose baseline is ~0 (U and O are
  /// exactly 0 in clean environments; a relative band is meaningless).
  double near_zero_abs = 1e-9;
};

struct CompareResult {
  std::vector<MetricDiff> diffs;  ///< every compared path, stable order
  std::size_t regressions = 0;    ///< kRegressed + kMissing
  std::size_t added = 0;
  bool ok() const { return regressions == 0; }
};

/// Compare two parsed reports (same schema). Baseline drives the metric
/// set; see DiffStatus for the verdict taxonomy.
CompareResult compare_reports(const json::Value& baseline,
                              const json::Value& current,
                              const CompareOptions& options = {});

/// Render a human-readable diff table (regressions first).
std::string render_compare(const CompareResult& result);

/// Compare every BENCH_*.json present in `baseline_dir` against its
/// namesake in `current_dir` (a missing file counts as a regression).
/// Appends a human-readable account to *out_text and returns the total
/// regression count (0 == gate passes). `tolerance_pct` overrides the
/// simulated-metric band when >= 0.
int compare_bench_dirs(const std::string& baseline_dir,
                       const std::string& current_dir, double tolerance_pct,
                       std::string* out_text);

// --- Statistical (multi-repetition) verdicts ----------------------------
//
// PASTRAMI-style treatment of host-time metrics (PAPERS.md): a single
// host-time number from a software router is meaningless; only the
// distribution over repetitions is. The statistical comparator
// therefore takes N samples per metric, checks the p25/p75 spread
// first (an unstable metric can never regress — it cannot be trusted
// either way, and the verdict says so), and gates the *median* against
// a baseline median with a percentile band. This is what promotes
// selected `host.*` throughput metrics from report-only to gated.

/// One metric's repetition samples.
struct StatSample {
  std::string path;
  std::vector<double> values;  ///< one per repetition, collection order
};

enum class StatStatus {
  kStable,        ///< spread inside the gate, median inside the band
  kUnstable,      ///< spread too wide (or too few reps) — not gateable
  kRegressed,     ///< stable and median outside the band, the bad way
  kImproved,      ///< stable and median outside the band, the good way
  kNoBaseline,    ///< stable, but nothing to gate against (report-only)
};

const char* to_string(StatStatus status);

struct StatOptions {
  std::size_t min_reps = 5;      ///< fewer samples -> kUnstable
  /// Instability gate: 100 * (p75 - p25) / |median| above this is
  /// kUnstable. PASTRAMI's observation is that run-to-run spread, not
  /// the mean, is the first-class result; 20% is a loose default for
  /// shared CI hosts.
  double spread_gate_pct = 20.0;
  /// Regression band around the baseline median (percent).
  double regress_pct = 10.0;
  /// Throughput semantics: a lower median regresses. Clear it for
  /// latency-style metrics where higher is worse.
  bool higher_is_better = true;
};

struct StatVerdict {
  std::string path;
  std::size_t reps = 0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double spread_pct = 0.0;      ///< 100 * (p75 - p25) / |median|
  bool has_baseline = false;
  double baseline_median = 0.0;
  double delta_pct = 0.0;       ///< 100 * (median - baseline) / |baseline|
  StatStatus status = StatStatus::kUnstable;
};

struct StatResult {
  std::vector<StatVerdict> verdicts;  ///< sample order
  std::size_t regressions = 0;        ///< kRegressed count
  std::size_t unstable = 0;
  bool ok() const { return regressions == 0; }
};

/// Judge each sampled metric against `baseline` medians (path -> median;
/// may be empty: every verdict is then kUnstable or kNoBaseline).
StatResult statistical_verdicts(
    const std::vector<StatSample>& samples,
    const std::vector<std::pair<std::string, double>>& baseline,
    const StatOptions& options = {});

/// Render a fixed-width verdict table, regressions first.
std::string render_stat_verdicts(const StatResult& result);

/// Serialize medians as a baseline file (deterministic ordering), and
/// parse one back. Schema: {"schema":1,"medians":{"path":value,...}}.
std::string stat_baseline_to_json(const StatResult& result);
std::vector<std::pair<std::string, double>> parse_stat_baseline(
    const std::string& text);

}  // namespace choir::analysis
