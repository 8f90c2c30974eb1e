// Offline telemetry-directory summary: the testable core of
// `choirctl stats <dir>`.
//
// Three outcomes, three exit codes at the CLI:
//  - kOk:         at least one non-empty artifact — summary printed, 0.
//  - kEmpty:      the directory exists but every known artifact is
//                 absent or zero-length. Still a summary (section
//                 headers and any empty-but-present files listed) so a
//                 telemetry dir from an aborted run reads as "present
//                 but empty", not as a typo — but a distinct exit code
//                 (3) so scripts can tell the two apart.
//  - kMissingDir: the path is not a directory at all (exit 1).
#pragma once

#include <string>

namespace choir::analysis {

enum class TelemetryDirStatus { kOk, kEmpty, kMissingDir };

struct TelemetryDirSummary {
  TelemetryDirStatus status = TelemetryDirStatus::kMissingDir;
  /// Human-readable summary (kOk/kEmpty) or error line (kMissingDir).
  std::string text;
  std::size_t artifacts_present = 0;   ///< files found (any size)
  std::size_t artifacts_nonempty = 0;  ///< files found with content
};

/// Summarize the artifacts a previous run wrote into `dir`
/// (counters.jsonl, histograms.csv, trace.json, series.jsonl,
/// metrics.prom, windows.csv, divergence.jsonl, profile.csv,
/// group_trace.json, events.jsonl, postmortem.json). Pure function of
/// the directory contents.
TelemetryDirSummary summarize_telemetry_dir(const std::string& dir);

}  // namespace choir::analysis
