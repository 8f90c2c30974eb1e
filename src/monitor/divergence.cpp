#include "monitor/divergence.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/expect.hpp"

namespace choir::monitor {

namespace {

void append_line(std::string& out, const DivergenceRecord& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"stream\":\"%s\",\"window\":%" PRIu64
      ",\"kind\":\"%s\",\"id_hi\":\"0x%016" PRIx64 "\",\"id_lo\":\"0x%016"
      PRIx64 "\",\"index_a\":%" PRId64 ",\"index_b\":%" PRId64
      ",\"move\":%" PRId64 ",\"latency_delta_ns\":%.17g,\"t_ns\":%" PRId64
      "}\n",
      r.stream_name.c_str(), r.window, to_string(r.kind), r.id.hi, r.id.lo,
      r.index_a, r.index_b, r.move, r.latency_delta_ns,
      static_cast<std::int64_t>(r.time_ns));
  out += buf;
}

}  // namespace

std::string render_divergence_jsonl(const StreamMonitor& monitor) {
  std::string out;
  for (const DivergenceRecord& r : monitor.divergence()) append_line(out, r);
  return out;
}

std::string render_windows_csv(const StreamMonitor& monitor) {
  // Flow columns are vacuous (0 flows, κ = 1) for windows whose feed
  // carried no flow ids, keeping one fixed schema either way.
  std::string out =
      "stream,window,b_begin,b_end,a_begin,a_end,common,moved,missing,"
      "extra,lcs,U,O,L,I,kappa,"
      "flows,flow_kappa_worst,flow_kappa_p50,flow_kappa_p999\n";
  char buf[640];
  for (const WindowRecord& w : monitor.windows()) {
    const std::size_t flows = w.has_flows ? w.flow_aggregate.flows : 0;
    const double fworst = w.has_flows ? w.flow_aggregate.worst : 1.0;
    const double fp50 = w.has_flows ? w.flow_aggregate.p50 : 1.0;
    const double fp999 = w.has_flows ? w.flow_aggregate.p999 : 1.0;
    std::snprintf(buf, sizeof(buf),
                  "%s,%" PRIu64 ",%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,"
                  "%.17g,%.17g,%.17g,%.17g,%.17g,"
                  "%zu,%.17g,%.17g,%.17g\n",
                  w.stream_name.c_str(), w.index, w.b_begin, w.b_end,
                  w.a_begin, w.a_end, w.common, w.moved, w.missing, w.extra,
                  w.lcs_length, w.metrics.uniqueness, w.metrics.ordering,
                  w.metrics.latency, w.metrics.iat, w.metrics.kappa, flows,
                  fworst, fp50, fp999);
    out += buf;
  }
  return out;
}

std::string render_window_table(const StreamMonitor& monitor) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-8s %6s %9s %7s %6s %7s %6s  %-9s %-9s %-9s %-9s %7s\n",
                "stream", "window", "packets", "common", "moved", "missing",
                "extra", "U", "O", "L", "I", "kappa");
  out += line;
  for (const WindowRecord& w : monitor.windows()) {
    std::snprintf(line, sizeof(line),
                  "%-8s %6llu %9zu %7zu %6zu %7zu %6zu  %-9.2e %-9.2e "
                  "%-9.2e %-9.2e %7.4f\n",
                  w.stream_name.c_str(),
                  static_cast<unsigned long long>(w.index),
                  w.b_end - w.b_begin, w.common, w.moved, w.missing, w.extra,
                  w.metrics.uniqueness, w.metrics.ordering, w.metrics.latency,
                  w.metrics.iat, w.metrics.kappa);
    out += line;
  }
  return out;
}

std::string render_stream_summary(
    const StreamMonitor& monitor,
    std::span<const core::ComparisonResult> comparisons) {
  CHOIR_EXPECT(monitor.streams().size() == comparisons.size(),
               "one comparison per monitored stream");
  std::string out;
  char line[256];
  for (const StreamResult& s : monitor.streams()) {
    const core::ComparisonResult& c = comparisons[s.ordinal];
    std::snprintf(line, sizeof(line),
                  "%-8s %zu packets, %zu windows: kappa=%.6f (U=%.2e O=%.2e "
                  "L=%.2e I=%.2e, moved=%zu missing=%zu extra=%zu)\n",
                  s.name.c_str(), s.packets, s.windows, c.metrics.kappa,
                  c.metrics.uniqueness, c.metrics.ordering, c.metrics.latency,
                  c.metrics.iat, c.moved, c.size_a - c.common,
                  c.size_b - c.common);
    out += line;
  }
  return out;
}

std::string render_top_divergence(const StreamMonitor& monitor,
                                  std::size_t limit) {
  std::string out;
  char line[256];
  std::size_t n = 0;
  for (const DivergenceRecord& r : monitor.divergence()) {
    if (n++ >= limit) break;
    std::snprintf(line, sizeof(line),
                  "%-8s w%-4llu %-8s id=%016llx:%016llx a=%lld b=%lld "
                  "move=%+lld dlat=%.0fns\n",
                  r.stream_name.c_str(),
                  static_cast<unsigned long long>(r.window),
                  to_string(r.kind), static_cast<unsigned long long>(r.id.hi),
                  static_cast<unsigned long long>(r.id.lo),
                  static_cast<long long>(r.index_a),
                  static_cast<long long>(r.index_b),
                  static_cast<long long>(r.move), r.latency_delta_ns);
    out += line;
  }
  return out;
}

}  // namespace choir::monitor
