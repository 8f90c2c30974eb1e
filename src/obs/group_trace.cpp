#include "obs/group_trace.hpp"

#include <set>
#include <utility>
#include <vector>

#include "common/chrome_trace.hpp"
#include "common/json.hpp"
#include "fault/fault_plan.hpp"

namespace choir::obs {

namespace {

/// Control opcode names, mirroring choir::app::Op (choir/control.hpp).
/// Kept local so the observability layer stays below the control plane
/// in the link order; the numbering is part of the wire format and
/// changes with it.
const char* ctl_op_name(std::uint16_t code) {
  switch (code) {
    case 1:
      return "start_record";
    case 2:
      return "stop_record";
    case 3:
      return "start_replay";
    case 4:
      return "clear_recording";
    case 5:
      return "ping";
    case 6:
      return "group_prepare";
    case 7:
      return "group_resync";
    case 8:
      return "beacon";
    default:
      return "op?";
  }
}

bool is_control_kind(EventKind kind) {
  switch (kind) {
    case EventKind::kControlSend:
    case EventKind::kControlRecv:
    case EventKind::kControlTimeout:
    case EventKind::kControlSendFail:
    case EventKind::kBeaconSend:
    case EventKind::kBeaconRecv:
      return true;
    default:
      return false;
  }
}

std::string render_args(const FlightLog& log, const FlightEvent& e) {
  json::Writer w;
  w.begin_object();
  if (is_control_kind(e.kind)) {
    w.key("op");
    w.string(ctl_op_name(e.code));
  } else if (e.kind == EventKind::kFaultActive) {
    w.key("fault");
    w.string(fault::kind_name(static_cast<fault::FaultKind>(e.code)));
    w.key("point");
    w.string(log.point_name(static_cast<std::uint16_t>(e.b)));
  } else {
    w.key("code");
    w.number(static_cast<std::uint64_t>(e.code));
  }
  w.key("round");
  w.number(static_cast<std::int64_t>(e.round));
  w.key("peer");
  w.number(static_cast<std::uint64_t>(e.peer));
  w.key("a");
  w.number(static_cast<std::int64_t>(e.a));
  w.key("b");
  w.number(e.b);
  w.key("f");
  w.number(e.f);
  w.key("trace");
  w.number(static_cast<std::uint64_t>(e.trace));
  w.key("span");
  w.number(static_cast<std::uint64_t>(e.span));
  w.key("parent");
  w.number(static_cast<std::uint64_t>(e.parent));
  w.end_object();
  return w.str();
}

}  // namespace

std::string render_group_trace(const FlightLog& log,
                               const GroupTimeline& timeline) {
  // Flow arrows bind a producer's carried span to every event that
  // consumed it; emit only two-sided flows so the trace stays tidy.
  std::set<std::uint32_t> produced;
  std::set<std::uint32_t> consumed;
  for (const TimelineEvent& ev : timeline.events) {
    const FlightEvent& e = ev.e;
    if ((e.kind == EventKind::kControlSend ||
         e.kind == EventKind::kBeaconSend) &&
        e.span != 0) {
      produced.insert(e.span);
    }
    if ((e.kind == EventKind::kControlRecv ||
         e.kind == EventKind::kBeaconRecv) &&
        e.parent != 0) {
      consumed.insert(e.parent);
    }
  }

  ChromeTraceWriter w(/*display_ns=*/false);
  w.event("process_name", nullptr, "M")
      .number("pid", 0)
      .args("{\"name\":\"choir replay group\"}");
  std::uint64_t sort_index = 0;
  for (std::uint16_t id : log.node_ids()) {
    const std::string label =
        json::escape(log.label(id)) + " (node " + std::to_string(id) + ")";
    w.event("thread_name", nullptr, "M")
        .number("pid", 0)
        .number("tid", id)
        .args("{\"name\":\"" + label + "\"}");
    w.event("thread_sort_index", nullptr, "M")
        .number("pid", 0)
        .number("tid", id)
        .args("{\"sort_index\":" + std::to_string(sort_index++) + "}");
  }

  // Replay rounds as complete-span bars on the track that opened them.
  std::vector<std::pair<const TimelineEvent*, const TimelineEvent*>> rounds;
  for (const TimelineEvent& ev : timeline.events) {
    if (ev.e.kind == EventKind::kRoundStart) {
      rounds.emplace_back(&ev, nullptr);
    } else if (ev.e.kind == EventKind::kRoundEnd) {
      for (auto& r : rounds) {
        if (r.second == nullptr && r.first->e.round == ev.e.round &&
            r.first->e.node == ev.e.node) {
          r.second = &ev;
          break;
        }
      }
    }
  }
  for (const auto& r : rounds) {
    if (r.second == nullptr) continue;
    w.event("round " + std::to_string(r.first->e.round), "obs", "X")
        .number("pid", 0)
        .number("tid", r.first->e.node)
        .time("ts", r.first->t_est)
        .time("dur", r.second->t_est - r.first->t_est);
  }

  for (const TimelineEvent& ev : timeline.events) {
    const FlightEvent& e = ev.e;
    w.event(kind_name(e.kind), "obs", "i")
        .number("pid", 0)
        .number("tid", e.node)
        .string("s", "t")
        .args(render_args(log, e))
        .time("ts", ev.t_est);

    const bool sender = (e.kind == EventKind::kControlSend ||
                         e.kind == EventKind::kBeaconSend) &&
                        e.span != 0 && consumed.count(e.span) != 0;
    const bool receiver = (e.kind == EventKind::kControlRecv ||
                           e.kind == EventKind::kBeaconRecv) &&
                          e.parent != 0 && produced.count(e.parent) != 0;
    if (sender || receiver) {
      w.event("ctl", "ctlflow", sender ? "s" : "f");
      if (receiver) w.string("bp", "e");
      w.number("id", sender ? e.span : e.parent)
          .number("pid", 0)
          .number("tid", e.node)
          .time("ts", ev.t_est);
    }
  }
  return w.finish();
}

std::string render_events_jsonl(const FlightLog& log,
                                const GroupTimeline& timeline) {
  std::string out;
  std::uint64_t index = 0;
  for (const TimelineEvent& ev : timeline.events) {
    const FlightEvent& e = ev.e;
    json::Writer w;
    w.begin_object();
    w.key("i");
    w.number(index++);
    w.key("t_est_ns");
    w.number(ev.t_est);
    w.key("t_wall_ns");
    w.number(static_cast<std::int64_t>(e.t_wall));
    w.key("node");
    w.number(static_cast<std::uint64_t>(e.node));
    w.key("label");
    w.string(log.label(e.node));
    w.key("kind");
    w.string(kind_name(e.kind));
    if (is_control_kind(e.kind)) {
      w.key("op");
      w.string(ctl_op_name(e.code));
    }
    if (e.kind == EventKind::kFaultActive) {
      w.key("fault");
      w.string(fault::kind_name(static_cast<fault::FaultKind>(e.code)));
      w.key("point");
      w.string(log.point_name(static_cast<std::uint16_t>(e.b)));
    }
    w.key("round");
    w.number(static_cast<std::int64_t>(e.round));
    w.key("peer");
    w.number(static_cast<std::uint64_t>(e.peer));
    w.key("code");
    w.number(static_cast<std::uint64_t>(e.code));
    w.key("a");
    w.number(static_cast<std::int64_t>(e.a));
    w.key("b");
    w.number(e.b);
    w.key("f");
    w.number(e.f);
    w.key("trace");
    w.number(static_cast<std::uint64_t>(e.trace));
    w.key("span");
    w.number(static_cast<std::uint64_t>(e.span));
    w.key("parent");
    w.number(static_cast<std::uint64_t>(e.parent));
    w.key("seq");
    w.number(e.seq);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace choir::obs
