#include "testbed/bench_suite.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "common/task_pool.hpp"
#include "testbed/scale.hpp"

namespace choir::testbed {

namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHOIR_EXPECT(in.good(), "cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ExperimentConfig suite_config(EnvironmentPreset preset, std::uint64_t packets,
                              int runs, std::uint64_t seed,
                              ReplayEngine engine = ReplayEngine::kChoir) {
  ExperimentConfig cfg;
  cfg.env = std::move(preset);
  cfg.packets = packets;
  cfg.runs = runs;
  cfg.seed = seed;
  cfg.collect_series = true;  // iat_within_10ns needs the delta series
  cfg.keep_captures = false;
  cfg.engine = engine;
  return cfg;
}

/// One suite entry: a pinned config plus its (optional) display name.
/// Suites build the whole list up front so the runner can fan the
/// independent experiments across a TaskPool.
struct SuiteCase {
  ExperimentConfig config;
  std::string case_name;  ///< empty = the environment's name
};

std::vector<SuiteCase> quick_cases(std::uint64_t packets) {
  // Two environments the paper leads with, small enough for a CI gate.
  std::vector<SuiteCase> cases;
  std::uint64_t seed = 2025;
  for (const auto& preset : {local_single(), local_dual()}) {
    cases.push_back({suite_config(preset, packets, 3, seed++), {}});
  }
  return cases;
}

std::vector<SuiteCase> engines_cases(std::uint64_t packets) {
  // Section 9 ablation at fixed scale: one case per replay engine.
  std::vector<SuiteCase> cases;
  for (const auto engine :
       {ReplayEngine::kChoir, ReplayEngine::kBusyWait, ReplayEngine::kSleep,
        ReplayEngine::kGapFill}) {
    auto cfg = suite_config(local_single(), packets, 3, 99, engine);
    std::string name = cfg.env.name + "+" + engine_tag(engine);
    cases.push_back({std::move(cfg), std::move(name)});
  }
  return cases;
}

std::vector<SuiteCase> environments_cases(std::uint64_t packets) {
  // Every Table 2 environment at a reduced, shape-preserving scale.
  std::vector<SuiteCase> cases;
  std::uint64_t seed = 2025;
  for (const auto& preset : all_presets()) {
    cases.push_back({suite_config(preset, packets, 5, seed++), {}});
  }
  return cases;
}

/// The event ledger as case counters: `events.<component>` for every
/// component, plus `events.total`. Only suites add them: the paper-scale
/// twins in results/ go through make_bench_case too, and keep their
/// committed bytes.
void add_event_counters(const ExperimentResult& result,
                        analysis::BenchCase& c) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sim::kComponentCount; ++i) {
    const std::uint64_t n = result.events_by_component[i];
    total += n;
    c.counters.emplace_back("events." + std::string(sim::kComponentNames[i]),
                            static_cast<double>(n));
  }
  c.counters.emplace_back("events.total", static_cast<double>(total));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

analysis::BenchCase make_bench_case(const ExperimentConfig& config,
                                    const ExperimentResult& result,
                                    const std::string& case_name) {
  analysis::BenchCase c;
  c.env = case_name.empty() ? config.env.name : case_name;
  c.seed = config.seed;
  c.packets = config.packets;
  c.runs = config.runs;
  c.rate_gbps = config.env.rate / 1e9;
  c.frame_bytes = config.env.frame_bytes;
  c.replayers = config.env.replayers;

  const double trial_s = to_seconds(result.trial_duration);
  c.trial_ms = trial_s * 1e3;
  c.recorded_packets = result.recorded_packets;
  if (trial_s > 0.0) {
    const double pkts = static_cast<double>(result.recorded_packets);
    c.throughput_gbps =
        pkts * static_cast<double>(config.env.frame_bytes) * 8.0 / trial_s /
        1e9;
    c.throughput_mpps = pkts / trial_s / 1e6;
  }
  c.recorder_rx_drops = result.recorder_rx_drops;
  c.replay_tx_drops = result.replay_tx_drops;
  c.mean = result.mean;

  char label[2] = "B";
  for (std::size_t i = 0; i < result.comparisons.size(); ++i) {
    const auto& cmp = result.comparisons[i];
    analysis::BenchRunRow row;
    row.label = label;
    ++label[0];
    row.metrics = cmp.metrics;
    row.iat_within_10ns = cmp.fraction_iat_within(10.0);
    // capture_sizes[0] is run A; comparisons start at run B.
    if (i + 1 < result.capture_sizes.size()) {
      row.capture_size = result.capture_sizes[i + 1];
    }
    c.run_rows.push_back(std::move(row));
  }

  c.counters.emplace_back("recorder_imissed",
                          static_cast<double>(result.recorder_imissed));
  c.counters.emplace_back("switch_queue_drops",
                          static_cast<double>(result.switch_queue_drops));
  c.counters.emplace_back("control_retries",
                          static_cast<double>(result.control_retries));

  // Per-flow κ aggregates (iff the experiment ran with flows enabled).
  // Flat counters so the existing report schema, writer, and compare
  // gate cover them with no format change.
  if (!result.flow_comparisons.empty()) {
    c.counters.emplace_back("flows", static_cast<double>(result.flow_count));
    c.counters.emplace_back("flow_unclassified",
                            static_cast<double>(result.flow_unclassified));
    char flow_label[2] = "B";
    for (const auto& fc : result.flow_comparisons) {
      const std::string prefix = std::string("flow.") + flow_label;
      ++flow_label[0];
      const flow::FlowAggregate& agg = fc.aggregate;
      c.counters.emplace_back(prefix + ".matched",
                              static_cast<double>(agg.matched));
      c.counters.emplace_back(prefix + ".only_a",
                              static_cast<double>(agg.only_a));
      c.counters.emplace_back(prefix + ".only_b",
                              static_cast<double>(agg.only_b));
      c.counters.emplace_back(prefix + ".kappa_worst", agg.worst);
      c.counters.emplace_back(prefix + ".kappa_p50", agg.p50);
      c.counters.emplace_back(prefix + ".kappa_p90", agg.p90);
      c.counters.emplace_back(prefix + ".kappa_p99", agg.p99);
      c.counters.emplace_back(prefix + ".kappa_p999", agg.p999);
      c.counters.emplace_back(prefix + ".kappa_weighted", agg.weighted_mean);
    }
  }
  return c;
}

analysis::BenchReport make_bench_report(const std::string& name,
                                        const std::string& suite) {
  analysis::BenchReport report;
  report.name = name;
  report.suite = suite;
  report.scale_packets = scale_from_env();
  report.choir_full = std::getenv("CHOIR_FULL") != nullptr &&
                      std::string(std::getenv("CHOIR_FULL")) == "1";
  if (const char* s = std::getenv("CHOIR_SCALE")) {
    report.has_choir_scale = true;
    report.choir_scale = std::strtoull(s, nullptr, 10);
  }
  return report;
}

const std::vector<BenchSuiteInfo>& bench_suites() {
  static const std::vector<BenchSuiteInfo> kSuites = {
      {"quick", "local single + dual replayer, 20k packets (CI gate)"},
      {"engines", "replay-engine ablation on local single, 16k packets"},
      {"environments", "all Table 2 environments, 40k packets"},
  };
  return kSuites;
}

std::vector<std::string> run_bench_suite(const std::string& suite,
                                         const std::string& out_dir, int jobs,
                                         SuiteTiming* timing) {
  analysis::BenchReport report;
  report.name = suite;
  report.suite = suite;
  std::vector<SuiteCase> cases;
  if (suite == "quick") {
    report.scale_packets = 20'000;
    cases = quick_cases(report.scale_packets);
  } else if (suite == "engines") {
    report.scale_packets = 16'000;
    cases = engines_cases(report.scale_packets);
  } else if (suite == "environments") {
    report.scale_packets = 40'000;
    cases = environments_cases(report.scale_packets);
  } else {
    throw Error("unknown bench suite: " + suite);
  }

  // The suite-level fan-out owns the workers; each experiment's own κ
  // evaluation degrades to inline on pool workers, so the requested job
  // count is also forwarded per experiment to cover the sequential-suite
  // case (and --jobs 1 pins everything to the historical path).
  for (auto& sc : cases) sc.config.eval_jobs = jobs;

  const auto suite_start = std::chrono::steady_clock::now();
  std::vector<double> task_ms(cases.size(), 0.0);
  // Cases land in the report by submission index, so the JSON bytes are
  // independent of the job count and of worker scheduling.
  report.cases = parallel_map_indexed<analysis::BenchCase>(
      jobs, cases.size(), [&cases, &task_ms](std::size_t i) {
        const auto task_start = std::chrono::steady_clock::now();
        const SuiteCase& sc = cases[i];
        const ExperimentResult result = run_experiment(sc.config);
        analysis::BenchCase c =
            make_bench_case(sc.config, result, sc.case_name);
        add_event_counters(result, c);
        task_ms[i] = ms_since(task_start);
        return c;
      });
  if (timing != nullptr) {
    timing->jobs = will_fan_out(jobs, cases.size())
                       ? std::min<int>(resolve_jobs(jobs),
                                       static_cast<int>(cases.size()))
                       : 1;
    timing->wall_ms = ms_since(suite_start);
    timing->tasks_ms = 0.0;
    for (const double ms : task_ms) timing->tasks_ms += ms;
    timing->recorded_packets = 0;
    for (const analysis::BenchCase& c : report.cases) {
      timing->recorded_packets += c.recorded_packets;
    }
  }

  fs::create_directories(out_dir);
  const std::string file = "BENCH_" + report.name + ".json";
  analysis::write_json(report, (fs::path(out_dir) / file).string());
  return {file};
}

int compare_bench_dirs(const std::string& baseline_dir,
                       const std::string& current_dir, double tolerance_pct,
                       std::string* out_text) {
  CHOIR_EXPECT(fs::is_directory(baseline_dir),
               "baseline directory not found: " + baseline_dir);
  analysis::CompareOptions options;
  if (tolerance_pct >= 0.0) options.sim_tolerance_pct = tolerance_pct;

  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(baseline_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  CHOIR_EXPECT(!files.empty(),
               "no BENCH_*.json files in baseline: " + baseline_dir);

  int regressions = 0;
  for (const std::string& file : files) {
    const fs::path current_path = fs::path(current_dir) / file;
    *out_text += "== " + file + " ==\n";
    if (!fs::exists(current_path)) {
      *out_text += "  MISSING: no current result for this baseline\n";
      ++regressions;
      continue;
    }
    const auto baseline =
        json::parse(read_file((fs::path(baseline_dir) / file).string()));
    const auto current = json::parse(read_file(current_path.string()));
    const auto result = analysis::compare_reports(baseline, current, options);
    *out_text += analysis::render_compare(result);
    regressions += static_cast<int>(result.regressions);
  }
  return regressions;
}

}  // namespace choir::testbed
