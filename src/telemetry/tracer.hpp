// Tracer: sim-time spans and instants, exported as Chrome-tracing JSON.
//
// Events carry simulated-nanosecond timestamps and are grouped onto
// named tracks (rendered as threads by the viewer): the experiment
// timeline, each middlebox, the recorder, and so on. The export is the
// Trace Event Format consumed by chrome://tracing and by Perfetto's
// legacy-JSON importer — load the file straight into ui.perfetto.dev.
//
// Memory is bounded: past `max_events` new events are counted as dropped
// instead of stored, so tracing a pathological run cannot OOM the host.
// Recording is observation only — the tracer never touches the event
// queue, the clocks, or any RNG stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace choir::telemetry {

struct TraceEvent {
  std::string name;
  char phase = 'X';        ///< 'X' complete span, 'i' instant
  std::uint32_t track = 0;
  Ns ts = 0;               ///< span start / instant time
  Ns dur = 0;              ///< span duration; unused for instants
  std::string args_json;   ///< pre-rendered JSON object body, may be empty
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

  explicit Tracer(std::size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {
    tracks_.push_back("experiment");
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Get-or-create the track (viewer thread) named `name`; returns its
  /// id. Track 0 always exists and is named "experiment".
  std::uint32_t track(const std::string& name);

  void span(const std::string& name, Ns start, Ns end,
            std::uint32_t track = 0, std::string args_json = {});
  void instant(const std::string& name, Ns at, std::uint32_t track = 0,
               std::string args_json = {});

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::string>& tracks() const { return tracks_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Write the Trace Event Format JSON document.
  void write_chrome_json(std::ostream& out) const;
  void write_chrome_json(const std::string& path) const;

  /// The tracer installed by the innermost live ScopedTelemetry, or
  /// nullptr when telemetry is disabled.
  static Tracer* current();

 private:
  void push(TraceEvent event);

  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
  std::uint64_t dropped_ = 0;
};

}  // namespace choir::telemetry
