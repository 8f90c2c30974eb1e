// Every BENCH_*.json artifact, one row each: the paper's Figs. 4-10,
// Tables 1-2, Section 5 line rate and Section 9 ablation, the
// pinned-scale suites CI gates, and the flow, group, chaos and κ-scaling
// sweeps.
//
//   bench_paper <id> [--jobs N] [--json PATH] [--reps N]
//
// Each row names its report id (the BENCH_<id>.json name), what it
// reproduces (DESIGN.md §4 experiment ids for the paper's artifacts),
// the experiments it runs and the function that prints them. The row's
// experiments fan across a task pool (`--jobs`, 0 = auto); stdout and
// the JSON are byte-identical at any job count. Paper rows and sweeps
// scale with CHOIR_SCALE / CHOIR_FULL (testbed/scale.hpp); line-rate,
// suite, flow and group rows pin their scale so their outputs compare on
// any machine. `--reps N` runs the row N times and reports the host
// throughput `host.<id>.pps_per_core` (recorded packets per second of
// summed experiment wall time) as p25/p50/p75 with a stable/UNSTABLE
// spread label; it never fails the run. With no id, an unknown one, a
// stray argument or a malformed count, the usage and ids are printed and
// the exit status is 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "analysis/histogram.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench_common.hpp"
#include "core/weighted_kappa.hpp"
#include "fault/chaos.hpp"
#include "testbed/scale.hpp"

namespace {

using namespace choir;

/// One experiment of an artifact: its configuration, its BENCH case name
/// (empty = the environment's name) and the heading its render prints
/// (group_scaling: the prefix of its metrics).
struct Case {
  testbed::ExperimentConfig config;
  std::string name;
  std::string title;
};

using Results = std::vector<testbed::ExperimentResult>;
using Render = void (*)(const std::vector<Case>&, const Results&,
                        bench::Reporter&);

/// What the JSON holds besides the render's metrics.
enum class Report {
  kCases,    ///< env-stamped scale header, one entry per case
  kSuite,    ///< suite header pinned at the cases' packet count, cases
             ///< with the event ledger, never a host section
  kMetrics,  ///< env-stamped scale header, the render's metrics only
};

struct Artifact {
  const char* id;     ///< report id; the JSON is BENCH_<id>.json
  const char* about;  ///< DESIGN.md §4 experiment ids, or what it measures
  std::vector<Case> cases;
  Render render;
  Report report = Report::kCases;
  /// The cases set their own packet count (not CHOIR_SCALE/CHOIR_FULL),
  /// so the header stamps cases[0]'s. Suites always pin.
  bool pinned = false;
};

/// A paper environment run: five runs (A plus B-E) at the env-selected
/// scale.
Case paper_case(testbed::EnvironmentPreset preset, std::string title,
                std::uint64_t seed = 2025) {
  testbed::ExperimentConfig cfg;
  cfg.env = std::move(preset);
  cfg.packets = testbed::scale_from_env();
  cfg.runs = 5;
  cfg.seed = seed;
  return {std::move(cfg), {}, std::move(title)};
}

// --- Print helpers ------------------------------------------------------

/// The experiment header: environment, scale, provenance counters.
void print_header(const std::string& figure,
                  const testbed::EnvironmentPreset& preset,
                  const testbed::ExperimentResult& result) {
  std::printf("=== %s — environment %s ===\n", figure.c_str(),
              preset.name.c_str());
  std::printf(
      "rate %.0f Gbps, %u-byte frames, %llu packets/trial (%.1f ms), "
      "%d replayer(s)%s\n",
      preset.rate / 1e9, preset.frame_bytes,
      static_cast<unsigned long long>(result.recorded_packets),
      to_seconds(result.trial_duration) * 1e3, preset.replayers,
      preset.with_noise ? ", background noise active" : "");
  std::printf("capture sizes:");
  for (const auto size : result.capture_sizes) {
    std::printf(" %zu", size);
  }
  std::printf("  (recorder pipeline drops: %llu)\n",
              static_cast<unsigned long long>(result.recorder_rx_drops));
}

/// Per-run metric lines in the paper's Section 6/7 style:
///   Run B: 92.23% IAT +-10ns, U 0, O 0, I 0.0290, L 2.62e-06, kappa 0.9855
void print_run_metrics(const testbed::ExperimentResult& result) {
  char run = 'B';
  for (const auto& c : result.comparisons) {
    std::printf(
        "Run %c: %5.2f%% IAT +-10ns, U %s, O %s, I %s, L %s, kappa %.4f\n",
        run++, 100.0 * c.fraction_iat_within(10.0),
        analysis::format_metric(c.metrics.uniqueness).c_str(),
        analysis::format_metric(c.metrics.ordering).c_str(),
        analysis::format_metric(c.metrics.iat).c_str(),
        analysis::format_metric(c.metrics.latency).c_str(), c.metrics.kappa);
  }
  std::printf(
      "Mean : U %s, O %s, I %s, L %s, kappa %.4f\n",
      analysis::format_metric(result.mean.uniqueness).c_str(),
      analysis::format_metric(result.mean.ordering).c_str(),
      analysis::format_metric(result.mean.iat).c_str(),
      analysis::format_metric(result.mean.latency).c_str(),
      result.mean.kappa);
}

/// Figure-style histogram of the IAT (or latency) deltas of runs B-E
/// against run A, pooled.
void print_histogram(const testbed::ExperimentResult& result, bool latency) {
  std::printf("-- %s delta distribution (runs B-E vs A, pooled) --\n",
              latency ? "latency" : "IAT");
  analysis::DeltaHistogram hist = analysis::DeltaHistogram::log_ns();
  for (const auto& c : result.comparisons) {
    hist.add_all(latency ? c.series.latency_delta_ns : c.series.iat_delta_ns);
  }
  std::printf("%s", hist.render().c_str());
}

/// Table 2 row: name | U | O | I | L | kappa (means over runs).
std::vector<std::string> table2_row(const std::string& name,
                                    const testbed::ExperimentResult& result) {
  std::vector<std::string> row{name};
  const auto cells = analysis::metrics_cells(result.mean);
  row.insert(row.end(), cells.begin(), cells.end());
  return row;
}

// --- Renders ------------------------------------------------------------

/// Figure layout per case: header, run metrics, pooled histograms.
void render_figure(const std::vector<Case>& cases, const Results& results,
                   bool latency) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    print_header(cases[i].title, cases[i].config.env, results[i]);
    print_run_metrics(results[i]);
    print_histogram(results[i], /*latency=*/false);
    if (latency) print_histogram(results[i], /*latency=*/true);
  }
}

void render_iat_latency(const std::vector<Case>& cases,
                        const Results& results, bench::Reporter&) {
  render_figure(cases, results, /*latency=*/true);
}

void render_iat(const std::vector<Case>& cases, const Results& results,
                bench::Reporter&) {
  render_figure(cases, results, /*latency=*/false);
}

/// Fig. 10: the noisy shared run with its drop count and histograms,
/// then the dedicated control's metrics.
void render_fig10(const std::vector<Case>& cases, const Results& results,
                  bench::Reporter& reporter) {
  const auto& result = results[0];
  print_header(cases[0].title, cases[0].config.env, result);
  print_run_metrics(result);
  std::size_t runs_with_drops = 0;
  for (std::size_t r = 1; r < result.capture_sizes.size(); ++r) {
    if (result.capture_sizes[r] != result.capture_sizes[0]) {
      ++runs_with_drops;
    }
  }
  std::printf("runs with drops vs run A: %zu (paper: 3 of 5 runs, "
              "205-1230 packets each)\n", runs_with_drops);
  print_histogram(result, /*latency=*/false);  // Fig. 10a
  print_histogram(result, /*latency=*/true);   // Fig. 10b
  reporter.add_metric("runs_with_drops", static_cast<double>(runs_with_drops));

  print_header(cases[1].title, cases[1].config.env, results[1]);
  print_run_metrics(results[1]);
}

/// Table 1: per-run edit-script move distances.
void render_table1(const std::vector<Case>& cases, const Results& results,
                   bench::Reporter& reporter) {
  const auto& result = results[0];
  print_header(cases[0].title, cases[0].config.env, result);
  analysis::TextTable table(
      {"Run", "Moved", "Moved%", "Mean (sigma)", "Abs. Mean (sigma)", "Min",
       "Max", "|p50|", "|p99|"});
  char run = 'B';
  for (const auto& c : result.comparisons) {
    const auto s = analysis::summarize(c.series.move_distance);
    const auto a = analysis::summarize_abs(c.series.move_distance);
    std::vector<double> abs_moves;
    abs_moves.reserve(c.series.move_distance.size());
    for (const auto d : c.series.move_distance) {
      abs_moves.push_back(std::abs(static_cast<double>(d)));
    }
    char mean_cell[64], abs_cell[64], pct[16];
    std::snprintf(mean_cell, sizeof(mean_cell), "%.2f (%.2f)", s.mean,
                  s.stddev);
    std::snprintf(abs_cell, sizeof(abs_cell), "%.2f (%.2f)", a.mean,
                  a.stddev);
    std::snprintf(pct, sizeof(pct), "%.1f%%",
                  100.0 * static_cast<double>(c.moved) /
                      static_cast<double>(c.common));
    const bool any = !abs_moves.empty();
    const double p50 = any ? analysis::percentile(abs_moves, 50.0) : 0.0;
    const double p99 = any ? analysis::percentile(abs_moves, 99.0) : 0.0;
    table.add_row(
        {std::string(1, run), std::to_string(c.moved), pct, mean_cell,
         abs_cell, std::to_string(static_cast<long long>(s.min)),
         std::to_string(static_cast<long long>(s.max)),
         std::to_string(static_cast<long long>(p50)),
         std::to_string(static_cast<long long>(p99))});
    const std::string run_key(1, run);
    reporter.add_metric("moves." + run_key + ".moved",
                        static_cast<double>(c.moved));
    reporter.add_metric("moves." + run_key + ".abs_mean", a.mean);
    reporter.add_metric("moves." + run_key + ".abs_p50", p50);
    reporter.add_metric("moves." + run_key + ".abs_p99", p99);
    ++run;
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "Paper (full scale): moved 49.8%% of packets; abs mean 7.2k-17.2k "
      "positions; whole bursts move together.\n");
}

/// Mean metrics per case, under the first case's title (Table 2, suites).
void render_means(const std::vector<Case>& cases, const Results& results,
                  bench::Reporter&) {
  analysis::TextTable table({"Environment", "U", "O", "I", "L", "kappa"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string& name =
        cases[i].name.empty() ? cases[i].config.env.name : cases[i].name;
    table.add_row(table2_row(name, results[i]));
  }
  std::printf("=== %s ===\n", cases[0].title.c_str());
  std::printf("%s", table.str().c_str());
}

/// Table 2: mean metrics per environment, with the paper's values.
void render_table2(const std::vector<Case>& cases, const Results& results,
                   bench::Reporter& reporter) {
  render_means(cases, results, reporter);
  std::printf(
      "\nPaper reference (full scale):\n"
      "| Local Single-Replayer       | 0       | 0      | 0.0294 | 4.27e-06 | 0.9853 |\n"
      "| Local Dual-Replayer         | 0       | 0.0259 | 0.2022 | 9.68e-03 | 0.9282 |\n"
      "| FABRIC Dedicated 40 Gbps 1  | 0       | 0      | 0.4996 | 3.07e-05 | 0.7426 |\n"
      "| FABRIC Shared 40 Gbps       | 0       | 0      | 0.0662 | 2.24e-05 | 0.9669 |\n"
      "| FABRIC Dedicated 40 Gbps 2  | 0       | 0      | 0.4998 | 4.20e-04 | 0.7502 |\n"
      "| FABRIC Dedicated 80 Gbps    | 0       | 0      | 0.1073 | 8.20e-06 | 0.9463 |\n"
      "| FABRIC Shared 80 Gbps       | 0       | 0      | 0.1105 | 2.26e-05 | 0.9448 |\n"
      "| FABRIC Ded. 80 Gbps Noisy   | 0       | 0      | 0.1085 | 1.37e-05 | 0.9458 |\n"
      "| FABRIC Shd. 40 Gbps Noisy   | 1.99e-04| 0      | 0.5024 | 2.04e-05 | 0.7488 |\n");
}

const char* engine_display_name(testbed::ReplayEngine engine) {
  switch (engine) {
    case testbed::ReplayEngine::kChoir: return "choir (TSC)";
    case testbed::ReplayEngine::kSleep: return "sleep (tcpreplay)";
    case testbed::ReplayEngine::kBusyWait: return "busy-wait (us clock)";
    case testbed::ReplayEngine::kGapFill: return "gap-fill (MoonGen)";
  }
  return "?";
}

constexpr testbed::ReplayEngine kAblationEngines[] = {
    testbed::ReplayEngine::kChoir, testbed::ReplayEngine::kBusyWait,
    testbed::ReplayEngine::kSleep, testbed::ReplayEngine::kGapFill};

/// Section 9: one case per engine on each of two environments, at half
/// the scale, four runs, seed 99.
std::vector<Case> ablation_cases() {
  const std::pair<testbed::EnvironmentPreset, const char*> envs[] = {
      {testbed::fabric_dedicated_80(),
       "dedicated NICs, quiet (line rate available)"},
      {testbed::fabric_shared_40_noisy(),
       "shared NICs with co-located iperf load"}};
  std::vector<Case> cases;
  for (const auto& [preset, title] : envs) {
    for (const auto engine : kAblationEngines) {
      testbed::ExperimentConfig cfg;
      cfg.env = preset;
      cfg.packets = testbed::scale_from_env() / 2;
      cfg.runs = 4;
      cfg.seed = 99;
      cfg.engine = engine;
      std::string name = preset.name + "+" + testbed::engine_tag(engine);
      cases.push_back({std::move(cfg), std::move(name), title});
    }
  }
  return cases;
}

/// One table per environment (consecutive cases sharing a title): the
/// metric means, % of IATs within +-10 ns and packets dropped per engine.
void render_ablation(const std::vector<Case>& cases, const Results& results,
                     bench::Reporter&) {
  for (std::size_t begin = 0; begin < cases.size();) {
    const std::string& title = cases[begin].title;
    std::printf("=== Ablation: replay engines on %s ===\n", title.c_str());
    analysis::TextTable table(
        {"Engine", "U", "O", "I", "L", "kappa", "IAT +-10ns", "drops"});
    std::size_t i = begin;
    for (; i < cases.size() && cases[i].title == title; ++i) {
      const auto& result = results[i];
      double within = 0;
      for (const auto& c : result.comparisons) {
        within += c.fraction_iat_within(10.0);
      }
      within /= static_cast<double>(result.comparisons.size());
      std::size_t dropped = 0;
      for (const auto size : result.capture_sizes) {
        if (size < result.recorded_packets) {
          dropped += result.recorded_packets - size;
        }
      }
      char within_cell[16];
      std::snprintf(within_cell, sizeof(within_cell), "%.1f%%",
                    100.0 * within);
      auto row =
          table2_row(engine_display_name(cases[i].config.engine), result);
      row.push_back(within_cell);
      row.push_back(std::to_string(dropped));
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.str().c_str());
    begin = i;
  }
}

/// Table 2: every environment in the paper's order, seeds 2025 upward.
std::vector<Case> table2_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 2025;
  for (auto& preset : testbed::all_presets()) {
    cases.push_back(paper_case(
        std::move(preset),
        "Table 2 — mean Section 3 metrics per environment", seed++));
  }
  return cases;
}

// --- Pinned-scale suites ------------------------------------------------

/// A suite experiment: packets and seed pinned, independent of
/// CHOIR_SCALE / CHOIR_FULL, so the committed baseline compares on any
/// machine.
testbed::ExperimentConfig suite_config(testbed::EnvironmentPreset preset,
                                       std::uint64_t packets, int runs,
                                       std::uint64_t seed) {
  testbed::ExperimentConfig cfg;
  cfg.env = std::move(preset);
  cfg.packets = packets;
  cfg.runs = runs;
  cfg.seed = seed;
  cfg.collect_series = true;  // iat_within_10ns needs the delta series
  cfg.keep_captures = false;
  return cfg;
}

/// quick: the two environments the paper leads with, small enough for a
/// CI gate.
std::vector<Case> quick_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 2025;
  for (auto preset : {testbed::local_single(), testbed::local_dual()}) {
    cases.push_back({suite_config(std::move(preset), 20'000, 3, seed++), {},
                     "Suite quick — local single + dual replayer"});
  }
  return cases;
}

/// engines: the Section 9 engines on local single at a fixed scale.
std::vector<Case> engines_cases() {
  std::vector<Case> cases;
  for (const auto engine : kAblationEngines) {
    auto cfg = suite_config(testbed::local_single(), 16'000, 3, 99);
    cfg.engine = engine;
    std::string name = cfg.env.name + "+" + testbed::engine_tag(engine);
    cases.push_back({std::move(cfg), std::move(name),
                     "Suite engines — replay engines on local single"});
  }
  return cases;
}

/// environments: every Table 2 environment at a reduced, shape-preserving
/// scale.
std::vector<Case> environments_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 2025;
  for (auto& preset : testbed::all_presets()) {
    cases.push_back({suite_config(std::move(preset), 40'000, 5, seed++), {},
                     "Suite environments — every Table 2 environment"});
  }
  return cases;
}

// --- Flow scaling -------------------------------------------------------

/// One local-single experiment fanned over 100k synthetic flows; every
/// capture is classified back into per-flow trials.
Case flow_scaling_case() {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.packets = 300'000;
  cfg.runs = 3;
  cfg.seed = 2025;
  cfg.collect_series = true;  // iat_within_10ns in the case rows
  cfg.flow.enabled = true;
  cfg.flow.flows = 100'000;
  return {std::move(cfg), "flow_scaling", {}};
}

/// The cross-flow κ aggregates (tail-oriented, see docs/FLOWS.md) and the
/// worst flows. The per-run aggregates are case counters
/// (flow.B.kappa_p50, ...); the cross-run summary goes under "metrics".
void render_flow_scaling(const std::vector<Case>& cases,
                         const Results& results, bench::Reporter& reporter) {
  const testbed::ExperimentConfig& cfg = cases[0].config;
  const testbed::ExperimentResult& result = results[0];
  std::printf("flow-scaling: %s, %llu flows, %llu packets/trial, %d runs\n",
              cfg.env.name.c_str(),
              static_cast<unsigned long long>(cfg.flow.flows),
              static_cast<unsigned long long>(cfg.packets), cfg.runs);
  std::printf("classified %zu flows in run A (%llu frames unclassified)\n",
              result.flow_count,
              static_cast<unsigned long long>(result.flow_unclassified));
  std::printf("%s",
              analysis::render_flow_aggregates(result.flow_comparisons)
                  .c_str());
  std::printf("-- worst flows (run B vs A) --\n%s",
              analysis::render_worst_flows(result.flow_comparisons.front(), 5)
                  .c_str());

  reporter.add_metric("flows.requested", static_cast<double>(cfg.flow.flows));
  reporter.add_metric("flows.classified",
                      static_cast<double>(result.flow_count));
  reporter.add_metric("flows.unclassified",
                      static_cast<double>(result.flow_unclassified));
  double worst = 1.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, weighted = 0.0;
  for (const auto& fc : result.flow_comparisons) {
    worst = std::min(worst, fc.aggregate.worst);
    p50 += fc.aggregate.p50;
    p90 += fc.aggregate.p90;
    p99 += fc.aggregate.p99;
    weighted += fc.aggregate.weighted_mean;
  }
  const auto n = static_cast<double>(result.flow_comparisons.size());
  reporter.add_metric("kappa.worst", worst);
  reporter.add_metric("kappa.p50", p50 / n);
  reporter.add_metric("kappa.p90", p90 / n);
  reporter.add_metric("kappa.p99", p99 / n);
  reporter.add_metric("kappa.weighted", weighted / n);
}

// --- Group scaling ------------------------------------------------------

/// The experiment's replay schedule (same constants as run_experiment),
/// so the chaos cases can aim fault windows at one run's replay phase.
struct Schedule {
  Ns trial = 0;
  Ns arm = 0;
  Ns wall_start0 = 0;
  Ns spacing = 0;
  Ns wall_start(int r) const { return wall_start0 + r * spacing; }
};

Schedule schedule_for(const testbed::ExperimentConfig& cfg) {
  const testbed::EnvironmentPreset& env = cfg.env;
  Schedule s;
  s.trial = static_cast<Ns>(mean_iat_ns(env.frame_bytes, env.rate) *
                            static_cast<double>(cfg.packets));
  s.arm = std::max<Ns>(milliseconds(5),
                       static_cast<Ns>(6.0 * env.replayer_sync_sigma_ns));
  const Ns record_end = milliseconds(10) + s.trial + milliseconds(5);
  s.wall_start0 = record_end + milliseconds(30) + s.arm;
  s.spacing = s.trial + 2 * s.arm + milliseconds(40);
  return s;
}

/// The full replay-group protocol (coordinator node, barrier start,
/// beacons, straggler machinery) over `nodes` replay nodes on a quiet
/// local testbed, 8192 packets per trial.
testbed::ExperimentConfig group_config(int nodes, int runs) {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::local_single();
  cfg.env.replayers = nodes;
  // Pin the sync model so the curve measures the protocol, not the
  // preset's sync-jitter default.
  cfg.env.replayer_sync_fraction_of_run = 0.0;
  cfg.env.replayer_sync_sigma_ns = 25.0;
  cfg.packets = 8192;
  cfg.runs = runs;
  cfg.seed = 2025;
  cfg.collect_series = true;  // iat_within_10ns in the case rows
  cfg.flow.enabled = true;
  cfg.flow.flows = 256;
  cfg.flow.shards = 8;
  cfg.group.enabled = true;
  // Tight health cadence: trials here are single-digit milliseconds.
  cfg.group.config.beacon_interval = microseconds(100);
  cfg.group.config.check_interval = microseconds(250);
  cfg.group.config.straggle_threshold = microseconds(400);
  cfg.group.config.resync_slack = microseconds(50);
  cfg.group.config.resync_retry = microseconds(500);
  return cfg;
}

/// κ versus node count N = 1..16 (every extra node adds one more shard
/// boundary the barrier has to line up), then three chaos cases that
/// exercise resync and eviction at fixed N. Titles are metric prefixes.
std::vector<Case> group_scaling_cases() {
  std::vector<Case> cases;
  for (int n = 1; n <= 16; ++n) {
    const std::string nodes = std::to_string(n);
    cases.push_back(
        {group_config(n, 3), "group_n" + nodes, "quiet.n" + nodes});
  }
  // A mid-replay stall on one node of four: straggle, resync to the
  // group horizon, finish with the group.
  auto stall = group_config(4, 2);
  const Schedule s = schedule_for(stall);
  stall.env.faults = fault::group_node_stall_plan(
      1, s.wall_start(1) + s.trial / 4, s.trial / 3);
  cases.push_back({std::move(stall), "chaos_stall_n4", "chaos.stall_n4"});
  // A lossy control path to one node of eight, covered by the sequenced
  // retry/backoff channel.
  auto loss = group_config(8, 2);
  loss.env.control_retry.max_attempts = 6;
  loss.env.control_retry.initial_backoff = microseconds(100);
  loss.env.control_retry.multiplier = 2.0;
  loss.env.control_retry.timeout = milliseconds(4);
  loss.env.faults = fault::group_control_loss_plan(1, 0, seconds(10), 0.5);
  cases.push_back({std::move(loss), "chaos_ctl_loss_n8", "chaos.ctl_loss_n8"});
  // One degraded clock of four: the barrier keeps firing but its sampled
  // residual blows up on the faulted node.
  auto clock = group_config(4, 2);
  clock.env.faults =
      fault::group_clock_degrade_plan(1, 0, seconds(10), 1000.0);
  cases.push_back({std::move(clock), "chaos_clock_n4", "chaos.clock_n4"});
  return cases;
}

void render_group_scaling(const std::vector<Case>& cases,
                          const Results& results, bench::Reporter& reporter) {
  std::size_t quiet = 0;
  while (quiet < cases.size() && cases[quiet].title.rfind("quiet.", 0) == 0) {
    ++quiet;
  }
  std::printf("group-scaling: %llu packets/trial, %d runs, N=1..%zu\n",
              static_cast<unsigned long long>(cases[0].config.packets),
              cases[0].config.runs, quiet);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& g = results[i].group_stats;
    const std::string& prefix = cases[i].title;
    reporter.add_metric(prefix + ".kappa", results[i].mean.kappa);
    reporter.add_metric(prefix + ".rounds_completed",
                        static_cast<double>(g.rounds_completed));
    reporter.add_metric(prefix + ".rounds_degraded",
                        static_cast<double>(g.rounds_degraded));
    reporter.add_metric(prefix + ".beacons_rx",
                        static_cast<double>(g.beacons_rx));
    reporter.add_metric(prefix + ".stragglers",
                        static_cast<double>(g.stragglers_detected));
    reporter.add_metric(prefix + ".resyncs",
                        static_cast<double>(g.resyncs_sent));
    reporter.add_metric(prefix + ".evictions",
                        static_cast<double>(g.evictions));
    reporter.add_metric(prefix + ".barrier_worst_residual_ns",
                        g.barrier_worst_residual_ns);
    std::printf(
        "  %-17s N=%-2d kappa %.4f  beacons %llu  resyncs %llu  "
        "evictions %llu  ctl retries %llu  barrier worst %.0f ns\n",
        cases[i].name.c_str(), cases[i].config.env.replayers,
        results[i].mean.kappa, static_cast<unsigned long long>(g.beacons_rx),
        static_cast<unsigned long long>(g.resyncs_sent),
        static_cast<unsigned long long>(g.evictions),
        static_cast<unsigned long long>(results[i].control_retries),
        g.barrier_worst_residual_ns);
  }
}

// --- Chaos sweep --------------------------------------------------------

constexpr double kChaosIntensities[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
constexpr std::uint64_t kChaosSeeds[] = {2025, 2026, 2027};
constexpr std::size_t kChaosSeedCount = std::size(kChaosSeeds);

/// Local single under the shipped chaos plan at increasing intensity,
/// three seeds per intensity so the trend, not one seed's packet lottery,
/// is what the table shows.
std::vector<Case> chaos_sweep_cases() {
  std::vector<Case> cases;
  for (const double intensity : kChaosIntensities) {
    for (const std::uint64_t seed : kChaosSeeds) {
      testbed::ExperimentConfig cfg;
      cfg.env = testbed::chaos_single(intensity);
      cfg.packets = testbed::scale_from_env() / 2;
      cfg.runs = 3;
      cfg.seed = seed;
      cfg.collect_series = false;
      cases.push_back({std::move(cfg), {}, {}});
    }
  }
  return cases;
}

/// κ erosion per intensity, averaged over the seeds, with the per-layer
/// fault audit trail.
void render_chaos_sweep(const std::vector<Case>& cases,
                        const Results& results, bench::Reporter& reporter) {
  analysis::TextTable table({"Intensity", "kappa", "U", "O", "I", "link",
                             "nic", "mempool", "ctl retries"});
  std::printf("=== chaos sweep: kappa vs fault intensity ===\n");
  std::printf("environment: chaos-single (local single + chaos plan), "
              "%llu packets x 3 runs x %zu seeds per row\n\n",
              static_cast<unsigned long long>(cases[0].config.packets),
              kChaosSeedCount);
  std::size_t cell = 0;
  for (const double intensity : kChaosIntensities) {
    double kappa = 0, u = 0, o = 0, i_metric = 0;
    std::uint64_t link = 0, nic = 0, mem = 0, retries = 0;
    for (std::size_t s = 0; s < kChaosSeedCount; ++s) {
      const auto& r = results[cell++];
      kappa += r.mean.kappa;
      u += r.mean.uniqueness;
      o += r.mean.ordering;
      i_metric += r.mean.iat;
      const auto& fs = r.fault_stats;
      link += fs.link_down_drops + fs.frames_dropped + fs.frames_corrupted +
              fs.frames_duplicated + fs.frames_reordered;
      nic += fs.rx_stalled_polls + fs.tx_stalled_bursts + fs.bursts_truncated;
      mem += fs.allocs_denied;
      retries += r.control_retries;
    }
    const auto n = static_cast<double>(kChaosSeedCount);
    char key[16];
    std::snprintf(key, sizeof(key), "%.2f", intensity);
    const std::string prefix = std::string("intensity.") + key + ".";
    reporter.add_metric(prefix + "kappa", kappa / n);
    reporter.add_metric(prefix + "U", u / n);
    reporter.add_metric(prefix + "O", o / n);
    reporter.add_metric(prefix + "I", i_metric / n);
    reporter.add_metric(prefix + "link_faults", static_cast<double>(link));
    reporter.add_metric(prefix + "nic_faults", static_cast<double>(nic));
    reporter.add_metric(prefix + "mempool_denied", static_cast<double>(mem));
    reporter.add_metric(prefix + "control_retries",
                        static_cast<double>(retries));
    char col[9][24];
    std::snprintf(col[0], sizeof(col[0]), "%.2f", intensity);
    std::snprintf(col[1], sizeof(col[1]), "%.4f", kappa / n);
    std::snprintf(col[2], sizeof(col[2]), "%.2e", u / n);
    std::snprintf(col[3], sizeof(col[3]), "%.2e", o / n);
    std::snprintf(col[4], sizeof(col[4]), "%.4f", i_metric / n);
    std::snprintf(col[5], sizeof(col[5]), "%llu",
                  static_cast<unsigned long long>(link));
    std::snprintf(col[6], sizeof(col[6]), "%llu",
                  static_cast<unsigned long long>(nic));
    std::snprintf(col[7], sizeof(col[7]), "%llu",
                  static_cast<unsigned long long>(mem));
    std::snprintf(col[8], sizeof(col[8]), "%llu",
                  static_cast<unsigned long long>(retries));
    table.add_row({col[0], col[1], col[2], col[3], col[4], col[5], col[6],
                   col[7], col[8]});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nReading: kappa decreases monotonically with intensity. Per-frame "
      "link faults\n(drops, corruption, duplication, reordering) hit each "
      "replay differently and\ndrive U and O off zero; NIC stalls and "
      "burst truncation add replay-side IAT\nnoise; mempool windows thin "
      "the recording identically for every run (graceful\ntruncation, no "
      "kappa cost). Every fault is counted, none is fatal.\n");
}

// --- κ scaling ----------------------------------------------------------

/// Every environment at half the scale, five runs, seeds 4242 upward.
std::vector<Case> kappa_scaling_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 4242;
  for (auto& preset : testbed::all_presets()) {
    testbed::ExperimentConfig cfg;
    cfg.env = std::move(preset);
    cfg.packets = testbed::scale_from_env() / 2;
    cfg.runs = 5;
    cfg.seed = seed++;
    cfg.collect_series = false;
    cases.push_back({std::move(cfg), {}, {}});
  }
  return cases;
}

/// The environments' mean κ under Eq. 5 and the two proposed
/// refinements (core/weighted_kappa.hpp):
///  - linear: Eq. 5 exactly. The paper observes that I (range ~0.5)
///    linearly overpowers L (range ~1e-4) and that the noisy run's drops
///    (U ~ 2e-4) "had very little impact" on the score.
///  - presence-sensitive: sqrt scaling on U and O, so any drops or
///    reordering at all visibly dent the score.
///  - range-equalized: inverse-range weights, letting L and U move the
///    score as much as I does across their observed ranges.
void render_kappa_scaling(const std::vector<Case>& cases,
                          const Results& results, bench::Reporter& reporter) {
  analysis::TextTable table({"Environment", "kappa (Eq.5)",
                             "presence-sensitive", "range-equalized"});
  for (std::size_t p = 0; p < cases.size(); ++p) {
    const std::string& env = cases[p].config.env.name;
    auto mean_scaled = [&](const core::KappaScaling& scaling) {
      double sum = 0;
      for (const auto& c : results[p].comparisons) {
        sum += core::scaled_kappa(c.metrics, scaling);
      }
      return sum / static_cast<double>(results[p].comparisons.size());
    };
    const double linear_v = mean_scaled(core::KappaScaling::linear());
    const double presence_v =
        mean_scaled(core::KappaScaling::presence_sensitive());
    const double equalized_v =
        mean_scaled(core::KappaScaling::range_equalized());
    reporter.add_metric("scaling." + env + ".linear", linear_v);
    reporter.add_metric("scaling." + env + ".presence", presence_v);
    reporter.add_metric("scaling." + env + ".equalized", equalized_v);
    char linear[16], presence[16], equalized[16];
    std::snprintf(linear, sizeof(linear), "%.4f", linear_v);
    std::snprintf(presence, sizeof(presence), "%.4f", presence_v);
    std::snprintf(equalized, sizeof(equalized), "%.4f", equalized_v);
    table.add_row({env, linear, presence, equalized});
  }
  std::printf("=== kappa scaling ablation (Section 8.2 / 10 future work) "
              "===\n%s", table.str().c_str());
  std::printf(
      "\nReading: the environment ranking is stable across scalings (a "
      "desirable\nproperty). The presence-sensitive sqrt(U)/sqrt(O) "
      "scaling moves a score only\nwhere reordering or drops actually "
      "occurred (the dual-replayer row; noisy\nrows when a run dropped "
      "packets) — and even then the Euclidean combination\nstays "
      "I-dominated, quantifying the paper's observation that a "
      "component\nwhose range is 1e-1 linearly overpowers the others. "
      "The range-equalized\ncolumn shows the flip side: inverse-range "
      "weights compress the score's\ndynamic range, so weighting alone "
      "cannot fix the imbalance — supporting the\npaper's hunch that a "
      "refined kappa needs non-linear scaling, not just weights.\n");
}

// --- Line rate ----------------------------------------------------------

constexpr std::uint16_t kLineRateBursts[] = {2, 4, 64};
constexpr double kLineRateGbps[] = {20.0, 40.0, 80.0, 99.7};

/// The forwarding loop drains at most `burst` frames per poll interval,
/// so it forwards at most cap = burst × frame bits / interval (2 frames
/// of 1400 B per 800 ns = 28 Gbps). Above the cap the backlog grows at
/// rate − cap and the replayer's RX ring (rx_ring_pkts = 8192) absorbs
/// it until it is full, which takes ring × rate / (rate − cap) offered
/// packets. The tightest cells above a cap (burst 2 at 40G, burst 4 at
/// 80G) need 8192 × 40 / 12 ≈ 27.3k; a shorter trial measures the ring
/// depth, not the loop's cap.
constexpr std::uint64_t kLineRatePackets = 40'000;

/// Section 5: local single at each burst size × offered rate.
std::vector<Case> line_rate_cases() {
  std::vector<Case> cases;
  for (const std::uint16_t burst : kLineRateBursts) {
    for (const double rate : kLineRateGbps) {
      testbed::ExperimentConfig cfg;
      cfg.env = testbed::local_single();
      cfg.env.rate = gbps(rate);
      cfg.env.choir.rx_burst_size = burst;
      cfg.packets = kLineRatePackets;
      cfg.runs = 2;
      cfg.seed = 11;
      cfg.collect_series = false;
      cases.push_back({std::move(cfg), {}, {}});
    }
  }
  return cases;
}

/// One row per burst size: its cap, recorded/replayed packets at each
/// rate, and the highest rate both runs carried without loss.
void render_line_rate(const std::vector<Case>& cases, const Results& results,
                      bench::Reporter& reporter) {
  std::vector<std::string> header{"Burst", "Cap (Gbps)"};
  for (const double rate : kLineRateGbps) {
    char cell[24];
    std::snprintf(cell, sizeof(cell), "%.1fG rec/rep", rate);
    header.push_back(cell);
  }
  header.push_back("Lossless up to");
  analysis::TextTable table(header);
  const auto& first = cases[0].config;
  std::printf("=== Section 5 — forwarding line rate vs burst size ===\n");
  std::printf("environment %s, %u-byte frames, %llu packets/trial, %d runs, "
              "%lld ns poll interval, %zu-packet replayer RX ring\n\n",
              first.env.name.c_str(), first.env.frame_bytes,
              static_cast<unsigned long long>(first.packets), first.runs,
              static_cast<long long>(first.env.choir.poll.interval),
              first.env.replayer_nic.rx_ring_pkts);
  std::size_t i = 0;
  for (const std::uint16_t burst : kLineRateBursts) {
    const std::string prefix = "burst." + std::to_string(burst) + ".";
    const auto& env = cases[i].config.env;
    const double cap = env.choir.rx_burst_size * env.frame_bytes * 8.0 /
                       static_cast<double>(env.choir.poll.interval);
    char cap_cell[16];
    std::snprintf(cap_cell, sizeof(cap_cell), "%.1f", cap);
    std::vector<std::string> row{std::to_string(burst), cap_cell};
    double lossless = 0.0;
    for (const double rate : kLineRateGbps) {
      const auto& result = results[i];
      const std::uint64_t packets = cases[i++].config.packets;
      const std::size_t replayed = result.capture_sizes[1];
      if (result.recorded_packets == packets && replayed == packets) {
        lossless = rate;
      }
      char key[16];
      std::snprintf(key, sizeof(key), "%.1f", rate);
      reporter.add_metric(prefix + "rate." + key + ".recorded",
                          static_cast<double>(result.recorded_packets));
      reporter.add_metric(prefix + "rate." + key + ".replayed",
                          static_cast<double>(replayed));
      row.push_back(std::to_string(result.recorded_packets) + "/" +
                    std::to_string(replayed));
    }
    reporter.add_metric(prefix + "cap_gbps", cap);
    reporter.add_metric(prefix + "max_lossless_gbps", lossless);
    char lossless_cell[16];
    std::snprintf(lossless_cell, sizeof(lossless_cell), "%.1f", lossless);
    row.push_back(lossless > 0.0 ? lossless_cell : "none");
    table.add_row(std::move(row));
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nPaper: Choir sustains 100 Gbps (8.9 Mpps) by forwarding bursts of "
      "up to 64\npackets. A smaller burst caps the loop at burst x frame "
      "bits / interval; above\nthe cap the replayer's RX ring fills and "
      "the recording loses packets.\n");
}

// --- The table ----------------------------------------------------------

std::vector<Artifact> all_artifacts() {
  using namespace testbed;
  return {
      // Figure 4 (a, b) + Section 6.1 in-text metrics: local testbed,
      // single replayer, 40 Gbps of 1400-byte packets. Paper bands:
      // U = O = 0, ~92.2-92.5% of IAT deltas within +-10 ns, I ~0.029,
      // kappa ~0.985.
      {"fig4", "F4a F4b §6.1",
       {paper_case(local_single(), "Figure 4 / Section 6.1")},
       render_iat_latency},
      // Figure 5 + Section 6.2: local testbed with two parallel
      // replayers (20 Gbps each) merging at the recorder. Paper bands:
      // O 0.014-0.033, I 0.15-0.31, L ~1e-2, kappa ~0.928; IAT
      // distribution shaped like Fig. 4a with longer tails.
      {"fig5", "F5", {paper_case(local_dual(), "Figure 5 / Section 6.2")},
       render_iat},
      // Figure 6 (a, b): FABRIC, dedicated ConnectX-6 NICs at 40 Gbps,
      // first epoch. Paper bands: U = O = 0, 30.6-48.4% IAT within
      // +-10 ns, I ~0.49-0.51, L ~2-5e-5, kappa 0.65-0.82.
      {"fig6", "F6a F6b",
       {paper_case(fabric_dedicated_40_epoch1(),
                   "Figure 6 / Section 7 test 1")},
       render_iat_latency},
      // Figure 7 (a, b): FABRIC, shared (SR-IOV VF) NICs at 40 Gbps,
      // quiet site. Paper bands: U = O = 0, 26.4-29.2% IAT within
      // +-10 ns, I ~0.060-0.070, L ~1-4e-5, kappa ~0.965-0.970 —
      // surprisingly better than the dedicated-NIC epoch.
      {"fig7", "F7a F7b",
       {paper_case(fabric_shared_40(), "Figure 7 / Section 7 test 2")},
       render_iat_latency},
      // Figure 8 (a, b): FABRIC, dedicated NICs at 40 Gbps, second epoch
      // — the confirmation run for the surprising test-1 result. Paper
      // bands: U = O = 0, 24.0-27.2% IAT within +-10 ns, I ~0.49-0.51,
      // L ~3.8-4.6e-4 (an order worse than epoch 1), kappa ~0.743-0.756.
      {"fig8", "F8a F8b",
       {paper_case(fabric_dedicated_40_epoch2(),
                   "Figure 8 / Section 7 test 3")},
       render_iat_latency},
      // Figure 9 (a, b): FABRIC at 80 Gbps (6.97 Mpps) on dedicated and
      // shared NICs. Paper bands (both): ~30.1-30.2% IAT within +-10 ns,
      // I ~0.106-0.111, L ~4e-6..3e-5, kappa ~0.944-0.947 — IATs get a
      // little more consistent at the higher rate.
      {"fig9", "F9a F9b",
       {paper_case(fabric_dedicated_80(), "Figure 9a / Section 7 at 80G"),
        paper_case(fabric_shared_80(), "Figure 9b / Section 7 at 80G")},
       render_iat},
      // Figure 10 (a, b) + Section 7.1: FABRIC shared NICs at 40 Gbps
      // with a co-located iperf3-style load (8 TCP streams bouncing
      // 35-50 Gbps) sharing the physical hardware — plus the
      // dedicated-NIC control at 80 Gbps, which the noise barely
      // touches. Paper bands (shared): 9.3-13.8% IAT within +-10 ns,
      // I 0.475-0.530, L ~2e-4, kappa ~0.74-0.76, and the first runs
      // with drops (U up to 5.8e-4).
      {"fig10", "F10a F10b §7.1",
       {paper_case(fabric_shared_40_noisy(),
                   "Figure 10 / Section 7.1 (shared, noisy)"),
        paper_case(fabric_dedicated_80_noisy(),
                   "Section 7.1 control (dedicated, noisy)")},
       render_fig10},
      // Table 1: distances packets were moved in the edit scripts
      // transforming each dual-replayer run into run A. The paper
      // reports, per run, the signed mean (sigma), absolute mean
      // (sigma), min, and max — with ~49.8% of packets in each edit
      // script and whole bursts moving together.
      {"table1", "T1", {paper_case(local_dual(), "Table 1 / Section 6.2")},
       render_table1},
      // Table 2: mean U / O / I / L / kappa for every evaluated
      // environment, in the order the paper presents them. This is the
      // headline reproduction: who is more consistent, and by roughly
      // how much.
      {"table2", "T2", table2_cases(), render_table2},
      // Section 9 ablation: Choir's TSC pacing vs tcpreplay-style
      // sleeping, gettimeofday busy-waiting, and MoonGen/GapReplay
      // invalid-packet gap filling — on a quiet dedicated path and on a
      // shared NIC with a co-located tenant. The paper's argument, made
      // quantitative:
      //  - on dedicated line rate, gap filling is the most precise;
      //  - on shared/contended NICs, the filler stream competes with
      //    other tenants: queues overflow, real packets drop, kappa
      //    collapses — while Choir degrades gracefully;
      //  - OS-timer pacing is far less consistent everywhere.
      {"ablation", "§9", ablation_cases(), render_ablation},
      // Section 5: the forwarding loop sustains 100 Gbps (8.9 Mpps)
      // because it drains bursts of up to 64 packets; bursts of 2 and 4
      // lose packets above their caps. Pinned scale, no baseline.
      {"line_rate", "§5", line_rate_cases(), render_line_rate,
       Report::kMetrics, true},
      // Pinned-scale suites with committed baselines (quick, engines)
      // that CI gates byte for byte.
      {"quick", "suite: local single + dual, 20k packets (CI gate)",
       quick_cases(), render_means, Report::kSuite},
      {"engines", "suite: replay engines on local single, 16k packets",
       engines_cases(), render_means, Report::kSuite},
      {"environments", "suite: every Table 2 environment, 40k packets",
       environments_cases(), render_means, Report::kSuite},
      // The flow subsystem at many-flow scale: 100k flows, 300k packets
      // per trial (pinned).
      {"flow_scaling", "per-flow kappa percentiles over 100k flows",
       {flow_scaling_case()}, render_flow_scaling, Report::kCases, true},
      // Replay-group consistency versus node count, plus chaos cases
      // (pinned).
      {"group_scaling", "group kappa vs node count, quiet + chaos",
       group_scaling_cases(), render_group_scaling, Report::kCases, true},
      // Consistency under deterministic fault injection.
      {"chaos_sweep", "kappa vs chaos intensity (EXPERIMENTS.md)",
       chaos_sweep_cases(), render_chaos_sweep, Report::kMetrics},
      // Ablation of the compound score itself (Sections 8.2 / 10 future
      // work): rankings and separations under proposed refinements.
      {"kappa_scaling", "kappa refinements per environment (§8.2, §10)",
       kappa_scaling_cases(), render_kappa_scaling, Report::kMetrics},
  };
}

int usage(const std::vector<Artifact>& artifacts) {
  std::fprintf(stderr,
               "usage: bench_paper <id> [--jobs N] [--json PATH] [--reps N]\n"
               "ids:\n");
  for (const auto& a : artifacts) {
    std::fprintf(stderr, "  %-14s %s\n", a.id, a.about);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Artifact> artifacts = all_artifacts();
  const Artifact* artifact = nullptr;
  if (argc >= 2) {
    for (const auto& a : artifacts) {
      if (std::strcmp(argv[1], a.id) == 0) artifact = &a;
    }
  }
  if (artifact == nullptr) return usage(artifacts);

  bench::Reporter reporter(artifact->id, &argc, argv);
  int jobs = 0;
  int reps = 1;
  try {
    jobs = bench::int_from_args("--jobs", 0, 0, &argc, argv);
    reps = bench::int_from_args("--reps", 1, 1, &argc, argv);
  } catch (const bench::UsageError& error) {
    std::fprintf(stderr, "bench_paper: %s\n", error.what());
    return usage(artifacts);
  }
  if (argc > 2) {
    std::fprintf(stderr, "bench_paper: unexpected argument '%s'\n", argv[2]);
    return usage(artifacts);
  }
  const std::uint64_t pinned = artifact->cases[0].config.packets;
  if (artifact->report == Report::kSuite) {
    reporter.pin_suite(pinned);
  } else if (artifact->pinned) {
    reporter.pin_scale(pinned);
  }

  const std::vector<Case>& cases = artifact->cases;
  std::vector<testbed::ExperimentConfig> configs;
  for (const auto& c : cases) configs.push_back(c.config);
  try {
    // Every repetition reruns the whole row; the results (and so stdout
    // and the JSON) are the same each time, only the host time differs.
    analysis::StatSample sample;
    sample.path = std::string("host.") + artifact->id + ".pps_per_core";
    Results results;
    for (int r = 0; r < reps; ++r) {
      results.clear();
      double task_seconds = 0.0;
      results = bench::run_configs(configs, jobs, &task_seconds);
      std::uint64_t packets = 0;
      for (const auto& result : results) packets += result.recorded_packets;
      sample.values.push_back(
          task_seconds > 0.0 ? static_cast<double>(packets) / task_seconds
                             : 0.0);
    }
    if (artifact->report != Report::kMetrics) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        reporter.add_case(cases[i].config, results[i], cases[i].name);
      }
    }
    artifact->render(cases, results, reporter);
    reporter.finish();
    if (reps > 1) {
      std::fputs(analysis::render_stat_verdicts(
                     analysis::statistical_verdicts({sample}))
                     .c_str(),
                 stdout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_paper: %s\n", error.what());
    return 1;
  }
}
