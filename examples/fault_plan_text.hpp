// The text form of a fault::FaultPlan, which fault_tour.cpp parses and
// prints. Production binaries build plans in code (fault/chaos.hpp), so
// the parser lives with the example; tests/test_fault_plan.cpp checks
// it, hostile lines included.
//
// One event per line:
//
//   link_drop      target=link.repl0-out start=12ms duration=5ms p=0.3
//   link_down      target=*              start=40ms duration=2ms
//   nic_rx_stall   target=nic.repl0-in   start=10ms duration=750us
//   mem_pressure   target=pool.gen0      start=1ms  duration=4ms  p=1.0
//
// '#' starts a comment; blank lines are ignored. Durations/starts take
// the suffixes ns, us, ms, s (bare numbers are nanoseconds).
#pragma once

#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "common/expect.hpp"
#include "fault/fault_plan.hpp"

namespace choir::fault {

namespace plan_text {

[[noreturn]] inline void fail_at(int line, const std::string& what) {
  throw FormatError("fault plan line " + std::to_string(line) + ": " + what);
}

/// Parse a finite double filling all of `token`, or fail with `what`.
inline double parse_number(const std::string& token, int line,
                           const std::string& what) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    fail_at(line, "bad " + what + " '" + token + "'");
  }
  if (pos != token.size() || !std::isfinite(value)) {
    fail_at(line, "bad " + what + " '" + token + "'");
  }
  return value;
}

/// Parse "120", "120ns", "3us", "12ms", "0.5s" into nanoseconds.
inline Ns parse_duration(const std::string& token, int line) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    fail_at(line, "bad time value '" + token + "'");
  }
  const std::string unit = token.substr(pos);
  double scale = 1.0;
  if (unit.empty() || unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = kNsPerUs;
  } else if (unit == "ms") {
    scale = kNsPerMs;
  } else if (unit == "s") {
    scale = kNsPerSec;
  } else {
    fail_at(line, "bad time unit '" + unit + "'");
  }
  // Ns holds [-2^63, 2^63); casting NaN, an infinity or anything else
  // outside that range is undefined, and NaN fails both comparisons.
  const double ns = value * scale;
  if (!(ns >= -0x1p63 && ns < 0x1p63)) {
    fail_at(line, "time not finite or out of range '" + token + "'");
  }
  return static_cast<Ns>(ns);
}

inline double parse_probability(const std::string& token, int line) {
  const double p = parse_number(token, line, "probability");
  if (p < 0.0 || p > 1.0) {
    fail_at(line, "probability out of [0,1]: '" + token + "'");
  }
  return p;
}

inline std::string format_ns(Ns t) {
  char buf[32];
  if (t != 0 && t % kNsPerMs == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(t / kNsPerMs));
  } else if (t != 0 && t % kNsPerUs == 0) {
    std::snprintf(buf, sizeof(buf), "%lldus",
                  static_cast<long long>(t / kNsPerUs));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(t));
  }
  return buf;
}

}  // namespace plan_text

/// Parse the text form. Throws choir::FormatError with a line number on
/// any malformed directive; a validated plan round-trips through
/// plan_to_text()/parse_plan() unchanged.
inline FaultPlan parse_plan(const std::string& text) {
  using namespace plan_text;
  FaultPlan plan;
  std::istringstream lines(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream words(raw);
    std::string kind_word;
    if (!(words >> kind_word)) continue;  // blank / comment-only line

    FaultEvent event;
    bool known = false;
    // FaultKind's enumerators run 0..kClockDegrade without gaps.
    for (int k = 0; k <= static_cast<int>(FaultKind::kClockDegrade); ++k) {
      if (kind_word == kind_name(static_cast<FaultKind>(k))) {
        event.kind = static_cast<FaultKind>(k);
        known = true;
        break;
      }
    }
    if (!known) fail_at(line_no, "unknown fault kind '" + kind_word + "'");

    std::string field;
    bool have_start = false;
    bool have_duration = false;
    while (words >> field) {
      const auto eq = field.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= field.size()) {
        fail_at(line_no, "expected key=value, got '" + field + "'");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "target") {
        event.target = value;
      } else if (key == "start") {
        event.start = parse_duration(value, line_no);
        have_start = true;
      } else if (key == "duration") {
        event.duration = parse_duration(value, line_no);
        have_duration = true;
      } else if (key == "p") {
        event.probability = parse_probability(value, line_no);
      } else if (key == "delay") {
        event.delay = parse_duration(value, line_no);
      } else if (key == "burst_cap") {
        std::size_t pos = 0;
        unsigned long cap = 0;
        try {
          cap = std::stoul(value, &pos);
        } catch (const std::exception&) {
          fail_at(line_no, "bad burst_cap '" + value + "'");
        }
        if (pos != value.size() || cap == 0 || cap > 0xffff) {
          fail_at(line_no, "burst_cap out of range '" + value + "'");
        }
        event.burst_cap = static_cast<std::uint16_t>(cap);
      } else if (key == "factor") {
        event.factor = parse_number(value, line_no, "factor");
        if (event.factor < 0.0) {
          fail_at(line_no, "factor out of range '" + value + "'");
        }
      } else {
        fail_at(line_no, "unknown key '" + key + "'");
      }
    }
    if (!have_start || !have_duration) {
      fail_at(line_no, "start= and duration= are required");
    }
    plan.add(event);
  }
  plan.validate();
  return plan;
}

/// Render a plan in the text form parse_plan() accepts.
inline std::string plan_to_text(const FaultPlan& plan) {
  using plan_text::format_ns;
  std::ostringstream out;
  for (const FaultEvent& e : plan.events()) {
    out << kind_name(e.kind) << " target=" << e.target
        << " start=" << format_ns(e.start)
        << " duration=" << format_ns(e.duration);
    if (e.probability != 1.0) out << " p=" << e.probability;
    if (e.delay != 0) out << " delay=" << format_ns(e.delay);
    if (e.kind == FaultKind::kNicBurstTruncate) {
      out << " burst_cap=" << e.burst_cap;
    }
    if (e.kind == FaultKind::kClockDegrade) {
      out << " factor=" << e.factor;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace choir::fault
