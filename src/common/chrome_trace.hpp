// Trace Event Format writer (chrome://tracing, Perfetto's legacy-JSON
// importer): the one place the repo's Chrome-trace artifacts format an
// event, so telemetry's trace.json and the flight recorder's
// group_trace.json share field rendering and one microsecond formatter.
//
// Events are written field by field in call order — metadata ("M"),
// complete spans ("X"), instants ("i") and flow arrows ("s"/"f") are all
// the same object shape with different fields — which keeps each
// artifact's byte layout exactly as its renderer spells it.
#pragma once

#include <cstdint>
#include <string>

namespace choir {

class ChromeTraceWriter {
 public:
  /// `display_ns` puts "displayTimeUnit":"ns" ahead of the event list.
  explicit ChromeTraceWriter(bool display_ns);

  /// Open the next event: {"name":N[,"cat":C],"ph":P. `cat` may be null
  /// (metadata events carry none).
  ChromeTraceWriter& event(const std::string& name, const char* cat,
                           const char* ph);
  ChromeTraceWriter& number(const char* key, std::uint64_t value);
  ChromeTraceWriter& string(const char* key, const std::string& value);
  /// A timestamp or duration: simulated ns rendered as microseconds
  /// with three decimals, so the nanosecond grid survives exactly.
  ChromeTraceWriter& time(const char* key, double ns);
  /// "args" with a pre-rendered JSON object.
  ChromeTraceWriter& args(const std::string& object_json);

  /// Close the document and return it (newline-terminated).
  std::string finish();

 private:
  std::string out_;
  bool open_ = false;  ///< an event object awaits its closing brace
  bool first_ = true;
};

}  // namespace choir
