#include "analysis/telemetry_dir.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace choir::analysis {

namespace {

namespace fs = std::filesystem;

struct Artifact {
  const char* name;
  const char* what;
};

// Every artifact any run mode can leave behind in its one artifact
// directory, grouped by subsystem.
constexpr Artifact kArtifacts[] = {
    {"counters.jsonl", "sampled registry snapshots"},
    {"histograms.csv", "latency histogram percentiles"},
    {"trace.json", "Chrome/Perfetto trace"},
    {"series.jsonl", "per-metric ring-buffer series"},
    {"metrics.prom", "Prometheus text exposition"},
    {"windows.csv", "monitor windows"},
    {"divergence.jsonl", "monitor divergence records"},
    {"profile.csv", "host-time span profile"},
    {"group_trace.json", "group flight-log Chrome trace"},
    {"events.jsonl", "merged group timeline"},
    {"postmortem.json", "postmortem root-cause report"},
};

std::size_t count_lines(const fs::path& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

}  // namespace

TelemetryDirSummary summarize_telemetry_dir(const std::string& dir) {
  TelemetryDirSummary summary;
  if (!fs::exists(dir) || !fs::is_directory(dir)) {
    summary.status = TelemetryDirStatus::kMissingDir;
    summary.text =
        "telemetry directory '" + dir + "' does not exist\n";
    return summary;
  }

  char buf[256];
  for (const Artifact& artifact : kArtifacts) {
    const fs::path path = fs::path(dir) / artifact.name;
    if (!fs::exists(path)) continue;
    ++summary.artifacts_present;
    const auto bytes = fs::file_size(path);
    if (bytes > 0) ++summary.artifacts_nonempty;
    std::snprintf(buf, sizeof(buf), "%-18s %10llu bytes %8zu lines  %s\n",
                  artifact.name, static_cast<unsigned long long>(bytes),
                  bytes > 0 ? count_lines(path) : std::size_t{0},
                  artifact.what);
    summary.text += buf;
  }

  if (summary.artifacts_nonempty > 0) {
    summary.status = TelemetryDirStatus::kOk;
    return summary;
  }
  summary.status = TelemetryDirStatus::kEmpty;
  // An aborted/zero-packet run leaves this shape; say so explicitly
  // instead of pretending the directory was mistyped.
  summary.text +=
      summary.artifacts_present > 0
          ? "telemetry directory '" + dir +
                "' is present but every artifact is empty\n"
          : "telemetry directory '" + dir +
                "' is present but holds no telemetry artifacts\n";
  summary.text += "-- counters --\n  (none)\n";
  summary.text += "-- gauges --\n  (none)\n";
  summary.text += "-- latency histograms (ns) --\n  (none)\n";
  return summary;
}

}  // namespace choir::analysis
