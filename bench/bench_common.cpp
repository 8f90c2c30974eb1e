#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/task_pool.hpp"
#include "common/write_file.hpp"
#include "testbed/scale.hpp"

namespace choir::bench {

namespace {

bool host_time_enabled() {
  const char* v = std::getenv("CHOIR_BENCH_HOST_TIME");
  return v != nullptr && std::strcmp(v, "1") == 0;
}

double host_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Find `<flag> VALUE` in argv, strip both (so downstream parsers — e.g.
/// google-benchmark's Initialize — never see them) and return VALUE.
/// Null when the flag is absent.
const char* take_flag_value(const char* flag, int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < *argc) {
      const char* value = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return value;
    }
  }
  return nullptr;
}

/// One finished experiment as a report case. Pulls only
/// simulated-timeline quantities; nothing host-timed.
analysis::BenchCase make_bench_case(const testbed::ExperimentConfig& config,
                                    const testbed::ExperimentResult& result,
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

/// Report skeleton with scale stamped from the environment variables
/// (what the run used).
analysis::BenchReport make_bench_report(const std::string& name) {
  analysis::BenchReport report;
  report.name = name;
  report.scale_packets = testbed::scale_from_env();
  const char* full = std::getenv("CHOIR_FULL");
  report.choir_full = full != nullptr && std::strcmp(full, "1") == 0;
  if (const char* s = std::getenv("CHOIR_SCALE")) {
    report.has_choir_scale = true;
    report.choir_scale = std::strtoull(s, nullptr, 10);
  }
  return report;
}

}  // namespace

std::string json_path_from_args(const std::string& name, int* argc,
                                char** argv) {
  std::string path;
  if (const char* value = take_flag_value("--json", argc, argv)) {
    path = value;
  }
  if (path.empty()) {
    if (const char* dir = std::getenv("CHOIR_BENCH_JSON")) {
      path = std::string(dir) + "/BENCH_" + name + ".json";
    }
  }
  return path;
}

int jobs_from_args(int* argc, char** argv) {
  return int_from_args("--jobs", 0, argc, argv);
}

std::uint64_t u64_from_args(const char* flag, std::uint64_t fallback,
                            int* argc, char** argv) {
  const char* value = take_flag_value(flag, argc, argv);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

int int_from_args(const char* flag, int fallback, int* argc, char** argv) {
  const char* value = take_flag_value(flag, argc, argv);
  return value != nullptr ? std::atoi(value) : fallback;
}

std::string str_from_args(const char* flag, const std::string& fallback,
                          int* argc, char** argv) {
  const char* value = take_flag_value(flag, argc, argv);
  return value != nullptr ? std::string(value) : fallback;
}

bool flag_from_args(const char* flag, int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      *argc -= 1;
      return true;
    }
  }
  return false;
}

std::vector<testbed::ExperimentResult> run_configs(
    const std::vector<testbed::ExperimentConfig>& configs, int jobs,
    double* task_seconds) {
  // Each config is an independent seeded simulation; the fan-out owns
  // the workers and each experiment's own κ evaluation degrades to
  // inline on them (see common/task_pool.hpp).
  std::vector<double> task_ms(configs.size(), 0.0);
  auto results = parallel_map_indexed<testbed::ExperimentResult>(
      jobs, configs.size(), [&configs, &task_ms, jobs](std::size_t i) {
        const double start = host_now_ms();
        testbed::ExperimentConfig cfg = configs[i];
        cfg.eval_jobs = jobs;
        auto result = testbed::run_experiment(cfg);
        task_ms[i] = host_now_ms() - start;
        return result;
      });
  if (task_seconds != nullptr) {
    *task_seconds = 0.0;
    for (const double ms : task_ms) *task_seconds += ms / 1e3;
  }
  return results;
}

HostStats host_stats_from_args(int default_reps, int* argc, char** argv) {
  HostStats stats;
  stats.reps = std::max(1, int_from_args("--reps", default_reps, argc, argv));
  stats.baseline = str_from_args("--stats-baseline", "", argc, argv);
  stats.out = str_from_args("--stats-out", "", argc, argv);
  return stats;
}

int judge_host_sample(const analysis::StatSample& sample,
                      const HostStats& stats) {
  std::vector<std::pair<std::string, double>> baseline;
  if (!stats.baseline.empty()) {
    std::ifstream in(stats.baseline, std::ios::binary);
    if (!in.good()) {
      std::fprintf(stderr, "cannot open stats baseline '%s'\n",
                   stats.baseline.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    baseline = analysis::parse_stat_baseline(buf.str());
  }
  const analysis::StatResult verdicts =
      analysis::statistical_verdicts({sample}, baseline);
  std::fputs(analysis::render_stat_verdicts(verdicts).c_str(), stdout);
  if (!stats.out.empty()) {
    write_file(stats.out, analysis::stat_baseline_to_json(verdicts));
    std::printf("wrote %s\n", stats.out.c_str());
  }
  return verdicts.ok() ? 0 : 1;
}

Reporter::Reporter(const std::string& name, int* argc, char** argv)
    : report_(make_bench_report(name)),
      path_(json_path_from_args(name, argc, argv)) {
  report_.include_host = host_time_enabled();
  if (report_.include_host) {
    start_ms_ = host_now_ms();
    char hostname[256] = "unknown";
    gethostname(hostname, sizeof(hostname) - 1);
    report_.host.hostname = hostname;
#if defined(__VERSION__)
    report_.host.compiler = __VERSION__;
#endif
    report_.host.hardware_threads = std::thread::hardware_concurrency();
  }
}

void Reporter::pin_suite(std::uint64_t packets) {
  report_.suite = report_.name;
  report_.scale_packets = packets;
  report_.choir_full = false;
  report_.has_choir_scale = false;
  report_.include_host = false;
  ledger_ = true;
}

void Reporter::add_case(const testbed::ExperimentConfig& config,
                        const testbed::ExperimentResult& result,
                        const std::string& case_name) {
  report_.cases.push_back(make_bench_case(config, result, case_name));
  if (ledger_) {
    analysis::BenchCase& c = report_.cases.back();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < sim::kComponentCount; ++i) {
      const std::uint64_t n = result.events_by_component[i];
      total += n;
      c.counters.emplace_back(
          "events." + std::string(sim::kComponentNames[i]),
          static_cast<double>(n));
    }
    c.counters.emplace_back("events.total", static_cast<double>(total));
  }
  if (report_.include_host && result.profile != nullptr) {
    const std::string& env = report_.cases.back().env;
    const double packets =
        result.recorded_packets > 0
            ? static_cast<double>(result.recorded_packets)
            : 1.0;
    for (const auto& entry : result.profile->summary()) {
      analysis::BenchStage stage;
      stage.name = env + "." + entry.name;
      stage.count = entry.agg.count;
      stage.total_ns = entry.agg.total_ns;
      stage.self_ns = entry.agg.self_ns();
      stage.self_ns_per_packet =
          static_cast<double>(entry.agg.self_ns()) / packets;
      report_.host.stages.push_back(std::move(stage));
    }
  }
}

void Reporter::add_metric(const std::string& path, double value) {
  report_.metrics.emplace_back(path, value);
}

void Reporter::add_host_metric(const std::string& path, double value) {
  if (report_.include_host) {
    report_.metrics.emplace_back("host." + path, value);
  }
}

std::string Reporter::finish() {
  if (path_.empty()) return {};
  if (report_.include_host) {
    report_.host.wall_ms = host_now_ms() - start_ms_;
  }
  write_file(path_, analysis::to_json(report_));
  std::fprintf(stderr, "wrote %s\n", path_.c_str());
  return path_;
}

}  // namespace choir::bench
