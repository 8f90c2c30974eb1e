#include "bench_common.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/task_pool.hpp"

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

double double_from_args(const char* flag, double fallback, int* argc,
                        char** argv) {
  const char* value = take_flag_value(flag, argc, argv);
  return value != nullptr ? std::strtod(value, nullptr) : fallback;
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
    const std::vector<testbed::ExperimentConfig>& configs, int jobs) {
  // Each config is an independent seeded simulation; the suite-level
  // fan-out owns the workers and each experiment's own κ evaluation
  // degrades to inline on them (see common/task_pool.hpp).
  return parallel_map_indexed<testbed::ExperimentResult>(
      jobs, configs.size(), [&configs, jobs](std::size_t i) {
        testbed::ExperimentConfig cfg = configs[i];
        cfg.eval_jobs = jobs;
        return testbed::run_experiment(cfg);
      });
}

Reporter::Reporter(const std::string& name, int* argc, char** argv)
    : report_(testbed::make_bench_report(name)),
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

void Reporter::add_case(const testbed::ExperimentConfig& config,
                        const testbed::ExperimentResult& result,
                        const std::string& case_name) {
  report_.cases.push_back(
      testbed::make_bench_case(config, result, case_name));
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
  analysis::write_json(report_, path_);
  std::fprintf(stderr, "wrote %s\n", path_.c_str());
  return path_;
}

}  // namespace choir::bench
