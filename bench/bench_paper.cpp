// The paper's evaluation, one row per artifact: Figs. 4-10, Tables 1-2
// and the Section 9 ablation.
//
//   bench_paper <id> [--jobs N] [--json PATH]
//
// Each row names its report id (the BENCH_<id>.json name), the DESIGN.md
// §4 experiment ids it reproduces, the experiments it runs and the
// function that prints them in the paper's layout. The row's experiments
// fan across a task pool (`--jobs`, 0 = auto); stdout and the JSON are
// byte-identical at any job count. Scale follows CHOIR_SCALE /
// CHOIR_FULL (testbed/scale.hpp). With no id, or an unknown one, the ids
// are listed and the exit status is 2.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/histogram.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench_common.hpp"
#include "testbed/scale.hpp"

namespace {

using namespace choir;

/// One experiment of an artifact: its configuration, its BENCH case name
/// (empty = the environment's name) and the heading its render prints.
struct Case {
  testbed::ExperimentConfig config;
  std::string name;
  std::string title;
};

using Results = std::vector<testbed::ExperimentResult>;
using Render = void (*)(const std::vector<Case>&, const Results&,
                        bench::Reporter&);

struct Artifact {
  const char* id;       ///< report id; the JSON is BENCH_<id>.json
  const char* exp_ids;  ///< DESIGN.md §4 experiment ids
  std::vector<Case> cases;
  Render render;
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

/// Table 2: mean metrics per environment, with the paper's values.
void render_table2(const std::vector<Case>& cases, const Results& results,
                   bench::Reporter&) {
  analysis::TextTable table({"Environment", "U", "O", "I", "L", "kappa"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    table.add_row(table2_row(cases[i].config.env.name, results[i]));
  }
  std::printf("=== Table 2 — mean Section 3 metrics per environment ===\n");
  std::printf("%s", table.str().c_str());
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
    cases.push_back(paper_case(std::move(preset), {}, seed++));
  }
  return cases;
}

// --- The table ----------------------------------------------------------

std::vector<Artifact> paper_artifacts() {
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
  };
}

int usage(const std::vector<Artifact>& artifacts) {
  std::fprintf(stderr,
               "usage: bench_paper <id> [--jobs N] [--json PATH]\n"
               "ids (DESIGN.md §4 experiments):\n");
  for (const auto& a : artifacts) {
    std::fprintf(stderr, "  %-9s %s\n", a.id, a.exp_ids);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Artifact> artifacts = paper_artifacts();
  const Artifact* artifact = nullptr;
  if (argc >= 2) {
    for (const auto& a : artifacts) {
      if (std::strcmp(argv[1], a.id) == 0) artifact = &a;
    }
  }
  if (artifact == nullptr) return usage(artifacts);

  bench::Reporter reporter(artifact->id, &argc, argv);
  const int jobs = bench::jobs_from_args(&argc, argv);
  std::vector<testbed::ExperimentConfig> configs;
  for (const auto& c : artifact->cases) configs.push_back(c.config);
  const Results results = bench::run_configs(configs, jobs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    reporter.add_case(configs[i], results[i], artifact->cases[i].name);
  }
  artifact->render(artifact->cases, results, reporter);
  reporter.finish();
  return 0;
}
