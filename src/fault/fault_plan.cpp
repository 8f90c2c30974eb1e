#include "fault/fault_plan.hpp"

#include <cstdio>
#include <sstream>

#include "common/expect.hpp"

namespace choir::fault {

namespace {

struct KindInfo {
  FaultKind kind;
  const char* name;
  FaultLayer layer;
};

constexpr KindInfo kKinds[] = {
    {FaultKind::kLinkDown, "link_down", FaultLayer::kLink},
    {FaultKind::kLinkDrop, "link_drop", FaultLayer::kLink},
    {FaultKind::kLinkCorrupt, "link_corrupt", FaultLayer::kLink},
    {FaultKind::kLinkDuplicate, "link_duplicate", FaultLayer::kLink},
    {FaultKind::kLinkReorder, "link_reorder", FaultLayer::kLink},
    {FaultKind::kNicRxStall, "nic_rx_stall", FaultLayer::kNic},
    {FaultKind::kNicTxStall, "nic_tx_stall", FaultLayer::kNic},
    {FaultKind::kNicBurstTruncate, "nic_burst_truncate", FaultLayer::kNic},
    {FaultKind::kMemPressure, "mem_pressure", FaultLayer::kMempool},
    {FaultKind::kClockDegrade, "clock_degrade", FaultLayer::kClock},
};

const KindInfo& info_of(FaultKind kind) {
  for (const KindInfo& k : kKinds) {
    if (k.kind == kind) return k;
  }
  throw FormatError("unknown fault kind id " +
                    std::to_string(static_cast<int>(kind)));
}

[[noreturn]] void fail_at(int line, const std::string& what) {
  throw FormatError("fault plan line " + std::to_string(line) + ": " + what);
}

/// Parse "120", "120ns", "3us", "12ms", "0.5s" into nanoseconds.
Ns parse_duration(const std::string& token, int line) {
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
  return static_cast<Ns>(value * scale);
}

double parse_probability(const std::string& token, int line) {
  std::size_t pos = 0;
  double p = 0.0;
  try {
    p = std::stod(token, &pos);
  } catch (const std::exception&) {
    fail_at(line, "bad probability '" + token + "'");
  }
  if (pos != token.size() || p < 0.0 || p > 1.0) {
    fail_at(line, "probability out of [0,1]: '" + token + "'");
  }
  return p;
}

std::string format_ns(Ns t) {
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

}  // namespace

FaultLayer layer_of(FaultKind kind) { return info_of(kind).layer; }

const char* kind_name(FaultKind kind) { return info_of(kind).name; }

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const std::string where =
        "fault plan event " + std::to_string(i) + " (" + kind_name(e.kind) +
        "): ";
    if (e.start < 0 || e.duration < 0) {
      throw FormatError(where + "negative window");
    }
    if (e.probability < 0.0 || e.probability > 1.0) {
      throw FormatError(where + "probability out of [0,1]");
    }
    if (e.delay < 0) throw FormatError(where + "negative delay");
    if (e.kind == FaultKind::kNicBurstTruncate && e.burst_cap == 0) {
      throw FormatError(where + "burst_cap must be >= 1");
    }
    if (e.factor < 0.0) throw FormatError(where + "negative factor");
    if (e.target.empty()) throw FormatError(where + "empty target");
  }
}

FaultPlan FaultPlan::parse(const std::string& text) {
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
    for (const KindInfo& k : kKinds) {
      if (kind_word == k.name) {
        event.kind = k.kind;
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
        std::size_t pos = 0;
        double factor = 0.0;
        try {
          factor = std::stod(value, &pos);
        } catch (const std::exception&) {
          fail_at(line_no, "bad factor '" + value + "'");
        }
        if (pos != value.size() || factor < 0.0) {
          fail_at(line_no, "factor out of range '" + value + "'");
        }
        event.factor = factor;
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

std::string FaultPlan::to_text() const {
  std::ostringstream out;
  for (const FaultEvent& e : events_) {
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
