#include "analysis/postmortem.hpp"

#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace choir::analysis {

namespace {

std::string ms(double ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return std::string(buf);
}

std::string node_label(const obs::FlightLog& log, std::uint16_t node) {
  const std::string& label = log.label(node);
  if (label.empty()) return "node " + std::to_string(node);
  return label + " (node " + std::to_string(node) + ")";
}

}  // namespace

std::string render_postmortem(const obs::FlightLog& log,
                              const obs::GroupTimeline& timeline,
                              const obs::PostmortemReport& report) {
  std::string out;
  const auto& events = timeline.events;
  if (report.outcomes.empty()) {
    out += "postmortem: no bad outcomes — all rounds clean\n";
    return out;
  }
  out += "postmortem: " + std::to_string(report.outcomes.size()) +
         " outcome(s)\n";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const obs::Outcome& o = report.outcomes[i];
    out += "\n[" + std::to_string(i + 1) + "] " +
           obs::outcome_kind_name(o.kind);
    if (o.round >= 0) out += " (round " + std::to_string(o.round) + ")";
    if (o.node != 0) out += " — " + node_label(log, o.node);
    out += "\n    root cause: " + o.root_cause + "\n";
    for (const obs::CauseStep& step : o.chain) {
      const obs::TimelineEvent& ev = events[step.event];
      out += "      t=" + ms(ev.t_est) + " ms  " +
             node_label(log, ev.e.node) + "  " +
             obs::kind_name(ev.e.kind) + ": " + step.note + "\n";
    }
    out += "    blame span: " + ms(o.blame_from_ns) + " – " +
           ms(o.blame_to_ns) + " ms (" +
           ms(o.blame_to_ns - o.blame_from_ns) + " ms)\n";
  }

  // Per-node blame totals: how much of the merged timeline each member
  // spends inside some outcome's blame interval.
  std::map<std::uint16_t, double> blame;
  for (const obs::Outcome& o : report.outcomes) {
    if (o.node == 0) continue;
    blame[o.node] += o.blame_to_ns - o.blame_from_ns;
  }
  if (!blame.empty()) {
    out += "\nper-node blame:\n";
    for (const auto& [node, total] : blame) {
      out += "  " + node_label(log, node) + ": " + ms(total) + " ms\n";
    }
  }
  if (report.kappa_gate_failed) {
    out += "\nverdict: KAPPA GATE FAILED\n";
  }
  return out;
}

std::string render_postmortem_json(const obs::FlightLog& log,
                                   const obs::GroupTimeline& timeline,
                                   const obs::PostmortemReport& report) {
  const auto& events = timeline.events;
  json::Writer w;
  w.begin_object();
  w.key("outcomes");
  w.begin_array();
  for (const obs::Outcome& o : report.outcomes) {
    w.begin_object();
    w.key("kind");
    w.string(obs::outcome_kind_name(o.kind));
    w.key("node");
    w.number(static_cast<std::uint64_t>(o.node));
    w.key("label");
    w.string(log.label(o.node));
    w.key("round");
    w.number(static_cast<std::int64_t>(o.round));
    w.key("root_cause");
    w.string(o.root_cause);
    w.key("blame_from_ns");
    w.number(o.blame_from_ns);
    w.key("blame_to_ns");
    w.number(o.blame_to_ns);
    w.key("chain");
    w.begin_array();
    for (const obs::CauseStep& step : o.chain) {
      const obs::TimelineEvent& ev = events[step.event];
      w.begin_object();
      w.key("t_est_ns");
      w.number(ev.t_est);
      w.key("node");
      w.number(static_cast<std::uint64_t>(ev.e.node));
      w.key("kind");
      w.string(obs::kind_name(ev.e.kind));
      w.key("note");
      w.string(step.note);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("kappa_gate_failed");
  w.boolean(report.kappa_gate_failed);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace choir::analysis
