// Renderers for the merged group timeline (docs/POSTMORTEM.md).
//
// Two byte-deterministic artifacts come out of a merged FlightLog:
//
//  * group_trace.json — Chrome-trace (chrome://tracing / Perfetto)
//    view: one named track per node, an instant per ring event, flow
//    arrows binding each traced control send to the member event that
//    consumed it (matched by span id), and complete-span bars for each
//    replay round on the coordinator track.
//
//  * events.jsonl — one JSON object per merged event with the full
//    ring payload (fixed key order, %.17g reals), the machine-readable
//    form the postmortem analyzer and external tooling consume.
//
// Both renderers are pure functions of the log: same rings in, same
// bytes out, at any `--jobs` value — CI cmp's them the same way it
// cmp's bench suite output.
#pragma once

#include <string>

#include "obs/flight_log.hpp"

namespace choir::obs {

std::string render_group_trace(const FlightLog& log,
                               const GroupTimeline& timeline);
std::string render_events_jsonl(const FlightLog& log,
                                const GroupTimeline& timeline);

}  // namespace choir::obs
