// Exports of the streaming monitor's outputs: the per-packet divergence
// attribution stream as JSON Lines, the per-window metric table as CSV,
// and human-readable tables for the CLI.
//
// Both file formats are byte-deterministic for a deterministic run: keys
// are emitted in a fixed order, doubles with %.17g (round-trippable and
// stable for identical values), and records in monitor emission order.
// The determinism regression test diffs two monitored runs byte for
// byte.
#pragma once

#include <span>
#include <string>

#include "core/metrics.hpp"
#include "monitor/stream_monitor.hpp"

namespace choir::monitor {

/// One JSON object per attributed packet:
/// {"stream":"run-1","window":3,"kind":"moved","id_hi":"0x..",
///  "id_lo":"0x..","index_a":N,"index_b":N,"move":N,
///  "latency_delta_ns":X,"t_ns":N}
/// index_a / index_b are -1 when not applicable (extra / missing).
std::string render_divergence_jsonl(const StreamMonitor& monitor);

/// Per-window rows:
/// stream,window,b_begin,b_end,a_begin,a_end,common,moved,missing,extra,
/// lcs,U,O,L,I,kappa,flows,flow_kappa_worst,flow_kappa_p50,flow_kappa_p999
std::string render_windows_csv(const StreamMonitor& monitor);

/// Fixed-width per-window table for terminal output.
std::string render_window_table(const StreamMonitor& monitor);

/// Per-stream summary lines: what the monitor observed of each stream,
/// with the whole-run Eq. 5 metrics of the evaluation's comparison of
/// the same run (`comparisons[i]` for monitored stream i).
std::string render_stream_summary(
    const StreamMonitor& monitor,
    std::span<const core::ComparisonResult> comparisons);

/// The most divergent packets, up to `limit` lines.
std::string render_top_divergence(const StreamMonitor& monitor,
                                  std::size_t limit);

}  // namespace choir::monitor
