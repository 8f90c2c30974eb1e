// Rendering for postmortem root-cause reports (docs/POSTMORTEM.md).
//
// obs::analyze_timeline produces the verdicts; this is the presentation
// layer: a human-readable report with per-node blame spans for the
// terminal, and a byte-deterministic postmortem.json for tooling.
#pragma once

#include <string>

#include "obs/postmortem.hpp"

namespace choir::analysis {

/// Terminal report: one block per outcome with the causal chain
/// (root-first, timeline timestamps, node labels) and per-node blame
/// spans; ends with a one-line verdict per outcome.
std::string render_postmortem(const obs::FlightLog& log,
                              const obs::GroupTimeline& timeline,
                              const obs::PostmortemReport& report);

/// Machine-readable twin (fixed key order, %.17g reals).
std::string render_postmortem_json(const obs::FlightLog& log,
                                   const obs::GroupTimeline& timeline,
                                   const obs::PostmortemReport& report);

}  // namespace choir::analysis
