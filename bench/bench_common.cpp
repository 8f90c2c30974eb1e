#include "bench_common.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/task_pool.hpp"
#include "common/write_file.hpp"
#include "testbed/scale.hpp"

namespace choir::bench {

namespace {

double host_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Find `<flag> VALUE` in argv, strip both (so later parsers never see
/// them) and return VALUE. Null when the flag is absent.
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

/// The one checked parser behind u64_from_args and int_from_args.
template <typename T>
T count_from_args(const char* flag, T fallback, T min, int* argc,
                  char** argv) {
  const char* value = take_flag_value(flag, argc, argv);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  T parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min) {
    throw UsageError(std::string("bad value '") + value + "' for " + flag +
                     " (a whole number >= " + std::to_string(min) +
                     " expected)");
  }
  return parsed;
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

std::uint64_t u64_from_args(const char* flag, std::uint64_t fallback,
                            std::uint64_t min, int* argc, char** argv) {
  return count_from_args(flag, fallback, min, argc, argv);
}

int int_from_args(const char* flag, int fallback, int min, int* argc,
                  char** argv) {
  return count_from_args(flag, fallback, min, argc, argv);
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
  // Each config is an independent seeded simulation, run whole on one
  // worker.
  std::vector<double> task_ms(configs.size(), 0.0);
  auto results = parallel_map_indexed<testbed::ExperimentResult>(
      jobs, configs.size(), [&configs, &task_ms](std::size_t i) {
        const double start = host_now_ms();
        auto result = testbed::run_experiment(configs[i]);
        task_ms[i] = host_now_ms() - start;
        return result;
      });
  if (task_seconds != nullptr) {
    *task_seconds = 0.0;
    for (const double ms : task_ms) *task_seconds += ms / 1e3;
  }
  return results;
}

Reporter::Reporter(const std::string& name, int* argc, char** argv)
    : report_(make_bench_report(name)),
      path_(str_from_args("--json", "", argc, argv)) {}

void Reporter::pin_scale(std::uint64_t packets) {
  report_.scale_packets = packets;
  report_.choir_full = false;
  report_.has_choir_scale = false;
}

void Reporter::pin_suite(std::uint64_t packets) {
  pin_scale(packets);
  report_.suite = report_.name;
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
}

void Reporter::add_metric(const std::string& path, double value) {
  report_.metrics.emplace_back(path, value);
}

std::string Reporter::finish() {
  if (path_.empty()) return {};
  write_file(path_, analysis::to_json(report_));
  std::fprintf(stderr, "wrote %s\n", path_.c_str());
  return path_;
}

}  // namespace choir::bench
