#include "telemetry/tracer.hpp"

#include "common/chrome_trace.hpp"
#include "common/json.hpp"

namespace choir::telemetry {

std::uint32_t Tracer::track(const std::string& name) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<std::uint32_t>(i);
  }
  tracks_.push_back(name);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void Tracer::span(const std::string& name, Ns start, Ns end,
                  std::uint32_t track, std::string args_json) {
  push(TraceEvent{name, 'X', track, start, end - start,
                  std::move(args_json)});
}

void Tracer::instant(const std::string& name, Ns at, std::uint32_t track,
                     std::string args_json) {
  push(TraceEvent{name, 'i', track, at, 0, std::move(args_json)});
}

void Tracer::push(TraceEvent event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

std::string Tracer::render_chrome_json() const {
  ChromeTraceWriter w(/*display_ns=*/true);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    w.event("thread_name", nullptr, "M")
        .number("pid", 1)
        .number("tid", i)
        .args("{\"name\":\"" + json::escape(tracks_[i]) + "\"}");
  }
  for (const TraceEvent& e : events_) {
    w.event(e.name, "choir", e.phase == 'X' ? "X" : "i")
        .number("pid", 1)
        .number("tid", e.track)
        .time("ts", static_cast<double>(e.ts));
    if (e.phase == 'X') {
      w.time("dur", static_cast<double>(e.dur));
    } else {
      w.string("s", "t");
    }
    if (!e.args_json.empty()) w.args(e.args_json);
  }
  return w.finish();
}

}  // namespace choir::telemetry
