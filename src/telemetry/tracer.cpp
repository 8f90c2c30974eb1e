#include "telemetry/tracer.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/expect.hpp"
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

namespace {
/// Trace Event Format timestamps are microseconds; emit with three
/// decimals so the full nanosecond resolution survives.
void write_us(std::ostream& out, Ns ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out << buf;
}
}  // namespace

void Tracer::write_chrome_json(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
        << ",\"args\":{\"name\":\"" << json::escape(tracks_[i]) << "\"}}";
  }
  for (const TraceEvent& e : events_) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json::escape(e.name)
        << "\",\"cat\":\"choir\",\"ph\":\"" << e.phase
        << "\",\"pid\":1,\"tid\":" << e.track << ",\"ts\":";
    write_us(out, e.ts);
    if (e.phase == 'X') {
      out << ",\"dur\":";
      write_us(out, e.dur);
    } else if (e.phase == 'i') {
      out << ",\"s\":\"t\"";
    }
    if (!e.args_json.empty()) out << ",\"args\":" << e.args_json;
    out << '}';
  }
  out << "]}\n";
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  CHOIR_EXPECT(out.good(), "cannot open for writing: " + path);
  write_chrome_json(out);
  CHOIR_EXPECT(out.good(), "write failed: " + path);
}

}  // namespace choir::telemetry
