// choirctl — command-line front end for the Choir experiment suite.
//
// Subcommands:
//   list                      list environment presets
//   run <env> [opts]          run an experiment, print metrics
//   figure <env> [opts]       run and print IAT/latency histograms
//   save <env> <dir> [opts]   run and write per-run .trc and .pcap files
//   stats <env> [opts]        run with telemetry, print counter/latency stats
//   stats <dir>               summarize previously written telemetry artifacts
//   monitor <env> [opts]      run with the streaming monitor, print windows
//   flows <env> [opts]        run a many-flow experiment, print per-flow
//                             kappa aggregates and the worst flows
//   postmortem <env> [opts]   group run with flight recording; merge the
//                             per-node rings into a causal timeline and
//                             print a root-cause report for every bad
//                             outcome (eviction, resync, kappa gate)
//   top <env> [opts]          run with the series sampler and render a
//                             live terminal view of every metric series
//                             (sparklines), final table at exit
//   soak <env> [opts]         N independent rounds (seed, seed+1, ...);
//                             feed per-round kappa series and counter
//                             totals through the drift detector and
//                             print the drift verdict (--drift-gate
//                             exits 1 on a drifting series)
//   export <env> <dir> [opts] run with telemetry and write its full
//                             artifact set into <dir>, the sampling
//                             cadence derived from the run length
//   compare <a.trc> <b.trc>   compute the Section 3 metrics offline
//   partition <trace> <n> <dir>  split a trace into n per-node sub-traces
//                             (flow-sharded, timelines rebased to 0)
//   bench --compare A B       diff two BENCH_*.json directories (the
//                             artifacts come from `bench_paper <id>`)
//
// Options:
//   --packets N    packets per trial (default: CHOIR_SCALE or 120000)
//   --runs N       replays including run A (default 5)
//   --seed N       experiment seed (default 1)
//   --engine E     choir | sleep | busywait | gapfill (default choir)
//   --telemetry D  collect telemetry and write counters.jsonl,
//                  histograms.csv, trace.json, series.jsonl and
//                  metrics.prom into directory D
//   --series-interval MS  sampler cadence in simulated milliseconds
//                  (> 0, fractional ok; default 5): each tick keeps a
//                  registry snapshot and samples every metric into its
//                  ring-buffer series. top/export default to ~64
//                  samples/run
//   --series-capacity N   ring capacity per metric series (default 4096)
//   --rounds N     (soak) independent rounds to run (default 6)
//   --drift-gate   (soak) exit 1 when any series is drifting
//   --monitor D    enable the streaming monitor and write
//                  divergence.jsonl + windows.csv into directory D
//   --window-packets N  monitor window size in packets (default 8192)
//   --top-k N      attribution entries per window per kind (default 16)
//   --windows      (stats) also run the monitor and print per-window rows
//   --per-flow     classify flows and evaluate per-flow kappa (see
//                  docs/FLOWS.md); implied by `flows` and by --flows
//   --group        run the replay-group protocol (coordinator node,
//                  barrier start, beacons, straggler resync; see
//                  docs/DISTRIBUTED.md)
//   --nodes N      replay-node count (implies --group for N outside the
//                  preset's hardwired 1..2 range)
//   --flows N      synthetic flow count for the many-flow workload
//   --flow-shards N  flow.<shard>.* counter namespaces
//   --flow ID      (stats) show one flow; exits 1 when ID is absent
//   --obs D        record per-node flight rings and write
//                  group_trace.json + events.jsonl into directory D
//                  (postmortem also writes postmortem.json there)
//                  A run has one artifact directory: --telemetry,
//                  --monitor, --obs (and export's <dir>) all name it,
//                  and every enabled observer writes its files there.
//                  Two different directories are a usage error.
//   --trace-sample N  ring-log round-affine events only every Nth round
//                  (keeps flight recording cheap at bench scale)
//   --chaos P      (postmortem) inject a group failure preset aimed at
//                  run 1's replay: stall | ctl-loss | clock
//   --chaos-node I (postmortem) replayer index the preset targets (def 1)
//   --kappa-gate X (postmortem) flag rounds with kappa below X; exits 1
//                  when any round fails the gate
//   --profile      host-time span profiling (profile.csv, trace track;
//                  turns telemetry on); also prints fired events per
//                  recorded packet for each scheduling component (the
//                  event ledger)
//
// Environment names accept every preset from `list` plus chaos-<f>
// (e.g. chaos-0.50) for the parametric chaos sweep presets.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis/bench_report.hpp"
#include "analysis/export.hpp"
#include "analysis/histogram.hpp"
#include "analysis/postmortem.hpp"
#include "analysis/report.hpp"
#include "analysis/telemetry_dir.hpp"
#include "common/write_file.hpp"
#include "monitor/divergence.hpp"
#include "monitor/drift.hpp"
#include "core/weighted_kappa.hpp"
#include "fault/chaos.hpp"
#include "obs/postmortem.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scale.hpp"
#include "trace/partition.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

namespace {

using namespace choir;

int usage() {
  std::fprintf(
      stderr,
      "usage: choirctl <command> [args]\n"
      "  list                          environment presets\n"
      "  run <env> [opts]              run an experiment, print metrics\n"
      "  figure <env> [opts]           print IAT/latency delta histograms\n"
      "  save <env> <dir> [opts]       write per-run .trc/.pcap files\n"
      "  stats <env> [opts]            run with telemetry, print stats\n"
      "  stats <dir>                   summarize saved telemetry artifacts\n"
      "  monitor <env> [opts]          run with the streaming monitor\n"
      "  flows <env> [opts]            many-flow run, per-flow kappa\n"
      "  postmortem <env> [opts]       group run + flight recording +\n"
      "                                root-cause report (see --chaos,\n"
      "                                --kappa-gate, --obs)\n"
      "  top <env> [opts]              live terminal view of the metric\n"
      "                                series (sparklines)\n"
      "  soak <env> [opts]             N-round soak; drift verdict over\n"
      "                                per-round kappa + counter rates\n"
      "                                (--rounds N, --drift-gate)\n"
      "  export <env> <dir> [opts]     write all telemetry artifacts incl.\n"
      "                                series.jsonl + metrics.prom\n"
      "  compare <a> <b>               offline metrics between traces\n"
      "                                (.trc native or .pcap files)\n"
      "  partition <trace> <n> <dir>   flow-shard a trace into n rebased\n"
      "                                per-node .trc sub-traces\n"
      "  bench --compare A B           leaf diff of two BENCH_*.json\n"
      "                                directories (exit 1 on a changed\n"
      "                                or missing leaf)\n"
      "options: --packets N  --runs N  --seed N  --csv DIR  --engine "
      "choir|sleep|busywait|gapfill  --telemetry DIR\n"
      "         --monitor DIR  --window-packets N  --top-k N  --windows  "
      "--profile\n"
      "         --series-interval MS  --series-capacity N  --rounds N  "
      "--drift-gate\n"
      "         --per-flow  --flows N  --flow-shards N  --flow ID\n"
      "         --group  --nodes N  --obs DIR  --trace-sample N\n"
      "         --chaos stall|ctl-loss|clock  --chaos-node I  "
      "--kappa-gate X\n");
  return 2;
}

bool find_preset(const std::string& name, testbed::EnvironmentPreset* out) {
  for (const auto& p : testbed::all_presets()) {
    if (p.name == name) {
      *out = p;
      return true;
    }
  }
  // chaos-<intensity> presets are parametric, not in the fixed list.
  if (name.rfind("chaos-", 0) == 0) {
    char* end = nullptr;
    const double intensity = std::strtod(name.c_str() + 6, &end);
    if (end != nullptr && *end == '\0' && intensity >= 0.0 &&
        intensity <= 1.0) {
      *out = testbed::chaos_single(intensity);
      return true;
    }
  }
  return false;
}

struct Options {
  std::uint64_t packets = testbed::scale_from_env();
  int runs = 5;
  std::uint64_t seed = 1;
  testbed::ReplayEngine engine = testbed::ReplayEngine::kChoir;
  std::string csv_dir;        ///< when set, write CSV artifacts there
  std::string artifact_dir;   ///< when set, every observer writes there
  bool telemetry = false;
  bool monitor = false;       ///< streaming monitor on
  std::size_t window_packets = 8192;
  std::size_t top_k = 16;
  bool windows = false;       ///< stats: print per-window monitor rows
  double series_interval_ms = 0.0;  ///< sampler cadence (ms; 0 = default)
  std::size_t series_capacity = 4096;  ///< ring capacity per series
  bool series_auto = false;   ///< top/export: derive a default cadence
  int rounds = 6;             ///< soak: independent rounds
  bool drift_gate = false;    ///< soak: exit 1 on a drifting series
  bool profile = false;       ///< host-time span profiling
  bool per_flow = false;      ///< flow classification + per-flow kappa
  std::uint32_t flows = 0;    ///< synthetic flows (0 = subsystem default)
  int flow_shards = 8;        ///< flow.<shard>.* counter namespaces
  long long flow_id = -1;     ///< stats: show one flow (exit 1 if absent)
  bool group = false;         ///< replay-group protocol (coordinator node)
  int nodes = 0;              ///< replay-node count (0 = preset default)
  bool obs = false;           ///< per-node flight recording on
  int trace_sample = 1;       ///< round sampling for the flight rings
  std::string chaos;          ///< postmortem: failure preset name
  int chaos_node = 1;         ///< postmortem: targeted replayer index
  double kappa_gate = -1.0;   ///< postmortem: per-round kappa gate
  bool ok = true;
};

/// Point the run's one artifact directory at `dir`; false when an
/// earlier flag already named a different one.
bool set_artifact_dir(Options& opt, const std::string& dir) {
  if (!opt.artifact_dir.empty() && opt.artifact_dir != dir) return false;
  opt.artifact_dir = dir;
  return true;
}

Options parse_options(const std::vector<std::string>& args,
                      std::size_t from) {
  Options opt;
  for (std::size_t i = from; i < args.size();) {
    const std::string& key = args[i];
    // Flags (no value).
    if (key == "--windows") {
      opt.windows = true;
      opt.monitor = true;
      ++i;
      continue;
    }
    if (key == "--profile") {
      opt.profile = true;
      ++i;
      continue;
    }
    if (key == "--per-flow") {
      opt.per_flow = true;
      ++i;
      continue;
    }
    if (key == "--group") {
      opt.group = true;
      ++i;
      continue;
    }
    if (key == "--drift-gate") {
      opt.drift_gate = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      opt.ok = false;
      return opt;
    }
    const std::string& value = args[i + 1];
    i += 2;
    if (key == "--packets") {
      opt.packets = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--runs") {
      opt.runs = std::atoi(value.c_str());
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--csv") {
      opt.csv_dir = value;
    } else if (key == "--telemetry") {
      opt.telemetry = true;
      opt.ok = set_artifact_dir(opt, value) && opt.ok;
    } else if (key == "--monitor") {
      opt.monitor = true;
      opt.ok = set_artifact_dir(opt, value) && opt.ok;
    } else if (key == "--window-packets") {
      opt.window_packets = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--top-k") {
      opt.top_k = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--series-interval") {
      opt.series_interval_ms = std::strtod(value.c_str(), nullptr);
      // The sampler needs a cadence of at least one simulated ns.
      if (!(opt.series_interval_ms * 1e6 >= 1.0)) opt.ok = false;
    } else if (key == "--series-capacity") {
      opt.series_capacity = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--rounds") {
      opt.rounds = std::atoi(value.c_str());
    } else if (key == "--flows") {
      opt.per_flow = true;
      opt.flows =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "--flow-shards") {
      opt.flow_shards = std::atoi(value.c_str());
    } else if (key == "--flow") {
      opt.per_flow = true;
      opt.flow_id = std::atoll(value.c_str());
    } else if (key == "--obs") {
      opt.obs = true;
      opt.ok = set_artifact_dir(opt, value) && opt.ok;
    } else if (key == "--trace-sample") {
      opt.obs = true;
      opt.trace_sample = std::atoi(value.c_str());
    } else if (key == "--chaos") {
      opt.chaos = value;
    } else if (key == "--chaos-node") {
      opt.chaos_node = std::atoi(value.c_str());
    } else if (key == "--kappa-gate") {
      opt.kappa_gate = std::strtod(value.c_str(), nullptr);
    } else if (key == "--nodes") {
      opt.nodes = std::atoi(value.c_str());
      // The legacy hardwired path only knows 1..2 replayers; beyond that
      // the run needs the group protocol anyway.
      if (opt.nodes > 2) opt.group = true;
    } else if (key == "--engine") {
      const auto engine = testbed::parse_engine(value);
      if (engine) {
        opt.engine = *engine;
      } else {
        opt.ok = false;
      }
    } else {
      opt.ok = false;
    }
  }
  return opt;
}

testbed::ExperimentConfig make_config(const testbed::EnvironmentPreset& env,
                                      const Options& opt,
                                      bool keep_captures) {
  testbed::ExperimentConfig cfg;
  cfg.env = env;
  cfg.packets = opt.packets;
  cfg.runs = opt.runs;
  cfg.seed = opt.seed;
  cfg.engine = opt.engine;
  cfg.keep_captures = keep_captures;
  cfg.artifact_dir = opt.artifact_dir;
  cfg.telemetry.enabled = opt.telemetry;
  cfg.telemetry.profile = opt.profile;
  if (opt.series_interval_ms > 0.0) {
    cfg.telemetry.series_interval =
        static_cast<Ns>(opt.series_interval_ms * 1e6);
  } else if (opt.series_auto) {
    // ~64 samples across the whole schedule (record + every replay).
    const testbed::ReplaySchedule sched = testbed::replay_schedule(cfg);
    cfg.telemetry.series_interval =
        std::max<Ns>(1, sched.round_end(cfg.runs - 1) / 64);
  }
  cfg.telemetry.series_capacity = opt.series_capacity;
  cfg.monitor.enabled = opt.monitor;
  cfg.monitor.window_packets = opt.window_packets;
  cfg.monitor.top_k = opt.top_k;
  cfg.flow.enabled = opt.per_flow;
  if (opt.flows > 0) cfg.flow.flows = opt.flows;
  cfg.flow.shards = opt.flow_shards;
  if (opt.nodes > 0) cfg.env.replayers = opt.nodes;
  cfg.group.enabled = opt.group;
  cfg.obs.enabled = opt.obs;
  cfg.obs.sample_every = opt.trace_sample;
  return cfg;
}

/// The "wrote DIR/{...}" line naming every file a run wrote into its
/// artifact directory (plus any the command wrote there itself).
void print_artifacts(const std::string& dir,
                     std::vector<std::string> names) {
  if (dir.empty() || names.empty()) return;
  std::string list;
  for (const std::string& name : names) {
    if (!list.empty()) list += ',';
    list += name;
  }
  std::printf("wrote %s/{%s}\n", dir.c_str(), list.c_str());
}

testbed::ExperimentResult run_with(const testbed::EnvironmentPreset& env,
                                   const Options& opt, bool keep_captures) {
  return run_experiment(make_config(env, opt, keep_captures));
}

void print_flows(const testbed::ExperimentResult& result,
                 std::size_t worst_limit) {
  if (result.flow_comparisons.empty()) return;
  std::printf("-- per-flow kappa (%zu flows in run A, %llu unclassified) --\n%s",
              result.flow_count,
              static_cast<unsigned long long>(result.flow_unclassified),
              analysis::render_flow_aggregates(result.flow_comparisons)
                  .c_str());
  if (worst_limit > 0) {
    std::printf("-- worst flows (run B vs A) --\n%s",
                analysis::render_worst_flows(result.flow_comparisons.front(),
                                             worst_limit)
                    .c_str());
  }
}

/// Per-run detail for one flow id. A requested id that was never
/// classified is an error (exit 1), exactly like pointing `stats` at a
/// missing telemetry directory.
int print_flow_detail(const testbed::ExperimentResult& result,
                      long long flow_id) {
  if (static_cast<std::uint64_t>(flow_id) >= result.flow_count) {
    std::fprintf(stderr,
                 "choirctl: flow %lld not present (%zu flows classified)\n",
                 flow_id, result.flow_count);
    return 1;
  }
  const auto id = static_cast<std::size_t>(flow_id);
  std::printf("-- flow %lld --\n", flow_id);
  for (std::size_t r = 0; r < result.flow_comparisons.size(); ++r) {
    const auto& flows = result.flow_comparisons[r].flows;
    if (id >= flows.size()) continue;
    const flow::FlowComparison& fc = flows[id];
    std::printf("  run %c: %-40s %6u/%-6u pkts kappa=%.4f%s\n",
                static_cast<char>('B' + r), flow::to_string(fc.key).c_str(),
                fc.packets_a, fc.packets_b, fc.metrics.kappa,
                fc.matched() ? "" : (fc.in_a ? " [missing]" : " [extra]"));
  }
  return 0;
}

void print_group(const testbed::ExperimentResult& result) {
  const auto& g = result.group_stats;
  if (g.rounds_started == 0) return;
  std::printf(
      "-- replay group --\n"
      "  rounds %llu started, %llu completed, %llu degraded; "
      "barrier worst residual %.0f ns\n"
      "  beacons %llu, stragglers %llu, resyncs %llu, rejoins %llu, "
      "evictions %llu, ready timeouts %llu\n",
      static_cast<unsigned long long>(g.rounds_started),
      static_cast<unsigned long long>(g.rounds_completed),
      static_cast<unsigned long long>(g.rounds_degraded),
      g.barrier_worst_residual_ns,
      static_cast<unsigned long long>(g.beacons_rx),
      static_cast<unsigned long long>(g.stragglers_detected),
      static_cast<unsigned long long>(g.resyncs_sent),
      static_cast<unsigned long long>(g.rejoins),
      static_cast<unsigned long long>(g.evictions),
      static_cast<unsigned long long>(g.ready_timeouts));
  std::uint64_t ctl_sent = 0, ctl_retries = 0, ctl_timeouts = 0;
  for (const auto& m : result.group_members) {
    std::printf(
        "  node %-3u %-10s beacons %-6llu straggles %-3llu resyncs %-3llu "
        "ctl %llu/%llu/%llu sent/retry/timeout  barrier residual %.0f ns\n",
        m.id, app::member_state_name(m.state),
        static_cast<unsigned long long>(m.beacons),
        static_cast<unsigned long long>(m.straggles),
        static_cast<unsigned long long>(m.resyncs),
        static_cast<unsigned long long>(m.ctl_sent),
        static_cast<unsigned long long>(m.ctl_retries),
        static_cast<unsigned long long>(m.ctl_timeouts),
        m.barrier_residual_ns);
    ctl_sent += m.ctl_sent;
    ctl_retries += m.ctl_retries;
    ctl_timeouts += m.ctl_timeouts;
  }
  if (ctl_sent > 0) {
    std::printf("  control channel: %llu commands sent, %llu retries, "
                "%llu timeouts\n",
                static_cast<unsigned long long>(ctl_sent),
                static_cast<unsigned long long>(ctl_retries),
                static_cast<unsigned long long>(ctl_timeouts));
  }
}

void print_metrics(const testbed::ExperimentResult& result) {
  char run = 'B';
  for (const auto& c : result.comparisons) {
    std::printf(
        "run %c: U=%s O=%s I=%s L=%s kappa=%.4f (+-10ns %.2f%%, "
        "|A|=%zu |B|=%zu)\n",
        run++, analysis::format_metric(c.metrics.uniqueness).c_str(),
        analysis::format_metric(c.metrics.ordering).c_str(),
        analysis::format_metric(c.metrics.iat).c_str(),
        analysis::format_metric(c.metrics.latency).c_str(), c.metrics.kappa,
        100.0 * c.fraction_iat_within(10.0), c.size_a, c.size_b);
  }
  std::printf("mean kappa %.4f  (presence-sensitive %.4f)\n",
              result.mean.kappa,
              core::scaled_kappa(result.mean,
                                 core::KappaScaling::presence_sensitive()));
}

void print_profile(const testbed::ExperimentResult& result) {
  if (result.profile == nullptr) return;
  std::printf("-- span profile (host time) --\n%s",
              result.profile->render_table().c_str());
  // The event ledger, per packet the recorder captured over all runs
  // (the packets perfbench's pps_per_core counts).
  std::uint64_t captured = 0;
  for (const std::size_t n : result.capture_sizes) captured += n;
  const double per = captured > 0 ? 1.0 / static_cast<double>(captured) : 0.0;
  std::printf("-- event ledger (events per recorded packet, %llu packets) "
              "--\n",
              static_cast<unsigned long long>(captured));
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < sim::kComponentCount; ++c) {
    const std::uint64_t n = result.events_by_component[c];
    total += n;
    if (n == 0) continue;
    std::printf("  %-16s %12llu %8.3f\n",
                std::string(sim::kComponentNames[c]).c_str(),
                static_cast<unsigned long long>(n),
                static_cast<double>(n) * per);
  }
  std::printf("  %-16s %12llu %8.3f\n", "total",
              static_cast<unsigned long long>(total),
              static_cast<double>(total) * per);
}

int cmd_list() {
  for (const auto& p : testbed::all_presets()) {
    std::printf("%-28s %3.0f Gbps x%d%s%s\n", p.name.c_str(), p.rate / 1e9,
                p.replayers, p.shared_nics ? "  shared-NIC" : "",
                p.with_noise ? "  +noise" : "");
  }
  return 0;
}

int cmd_run(const std::vector<std::string>& args, bool figures) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3 || !find_preset(args[2], &env)) return usage();
  const Options opt = parse_options(args, 3);
  if (!opt.ok) return usage();
  const auto result = run_with(env, opt, false);
  std::printf("%s: %llu packets/trial, %d runs\n", env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs);
  print_metrics(result);
  print_group(result);
  print_flows(result, /*worst_limit=*/0);
  print_profile(result);
  analysis::DeltaHistogram iat = analysis::DeltaHistogram::log_ns();
  analysis::DeltaHistogram lat = analysis::DeltaHistogram::log_ns();
  for (const auto& c : result.comparisons) {
    iat.add_all(c.series.iat_delta_ns);
    lat.add_all(c.series.latency_delta_ns);
  }
  if (figures) {
    std::printf("-- IAT deltas --\n%s-- latency deltas --\n%s",
                iat.render().c_str(), lat.render().c_str());
  }
  if (!opt.csv_dir.empty()) {
    const std::string base = opt.csv_dir + "/" + env.name;
    write_file(base + "-iat.csv", analysis::render_histogram_csv(iat));
    write_file(base + "-latency.csv", analysis::render_histogram_csv(lat));
    std::vector<analysis::MetricsRow> rows;
    char run = 'B';
    for (const auto& c : result.comparisons) {
      rows.push_back({std::string("run-") + run++, c.metrics});
    }
    rows.push_back({"mean", result.mean});
    write_file(base + "-metrics.csv", analysis::render_metrics_csv(rows));
    std::printf("wrote %s-{iat,latency,metrics}.csv\n", base.c_str());
  }
  print_artifacts(opt.artifact_dir, result.artifacts);
  return 0;
}

void print_monitor(const testbed::ExperimentResult& result,
                   bool window_rows, std::size_t divergence_limit) {
  if (result.monitor == nullptr) return;
  const auto& mon = *result.monitor;
  std::printf(
      "-- monitored streams (exact Eq. 5 vs run-0) --\n%s",
      monitor::render_stream_summary(mon, result.comparisons).c_str());
  if (window_rows) {
    std::printf("-- windows (w=%zu packets) --\n%s",
                mon.config().window_packets,
                monitor::render_window_table(mon).c_str());
  }
  if (divergence_limit > 0 && !mon.divergence().empty()) {
    std::printf("-- top divergent packets --\n%s",
                monitor::render_top_divergence(mon, divergence_limit).c_str());
  }
}

/// `stats <dir>`: summarize artifacts a previous run wrote, instead of
/// running an experiment. Exit codes distinguish the failure shapes so
/// scripts can: 1 = the directory does not exist (a typo), 3 = it
/// exists but holds no non-empty telemetry artifact (an aborted or
/// zero-packet run) — the empty gauge/histogram sections still print.
int cmd_stats_dir(const std::string& dir) {
  const analysis::TelemetryDirSummary summary =
      analysis::summarize_telemetry_dir(dir);
  if (summary.status == analysis::TelemetryDirStatus::kMissingDir) {
    std::fprintf(stderr, "choirctl: %s", summary.text.c_str());
    return 1;
  }
  std::fputs(summary.text.c_str(), stdout);
  return summary.status == analysis::TelemetryDirStatus::kOk ? 0 : 3;
}

int cmd_stats(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3) return usage();
  if (!find_preset(args[2], &env)) {
    // Not a preset: treat the argument as a telemetry artifact directory
    // (error out clearly when it is neither).
    if (!args[2].empty() && args[2][0] == '-') return usage();
    return cmd_stats_dir(args[2]);
  }
  Options opt = parse_options(args, 3);
  if (!opt.ok) return usage();
  opt.telemetry = true;
  const auto result = run_with(env, opt, false);
  std::printf("%s: %llu packets/trial, %d runs, mean kappa %.4f\n",
              env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs, result.mean.kappa);

  const auto& registry = *result.telemetry_registry;
  const auto snapshot = registry.snapshot(0);
  std::printf("-- counters --\n");
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("flow.", 0) == 0) continue;  // own section below
    std::printf("  %-42s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  bool any_flow_counter = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("flow.", 0) != 0) continue;
    if (!any_flow_counter) {
      std::printf("-- flow counters (flow.<shard>.*) --\n");
      any_flow_counter = true;
    }
    std::printf("  %-42s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("-- gauges --\n");
  for (const auto& [name, value] : snapshot.gauges) {
    std::printf("  %-42s %lld\n", name.c_str(),
                static_cast<long long>(value));
  }
  std::printf("-- latency histograms (ns) --\n");
  std::printf("  %-42s %10s %10s %10s %10s %10s\n", "name", "count", "p50",
              "p90", "p99", "max");
  for (const auto& [name, histogram] : registry.histograms()) {
    const auto s = histogram.summary();
    std::printf("  %-42s %10llu %10lld %10lld %10lld %10lld\n", name.c_str(),
                static_cast<unsigned long long>(s.count),
                static_cast<long long>(s.p50), static_cast<long long>(s.p90),
                static_cast<long long>(s.p99), static_cast<long long>(s.max));
  }
  const auto& tracer = *result.telemetry_trace;
  std::printf("-- trace --\n  %zu events recorded, %llu dropped\n",
              tracer.events().size(),
              static_cast<unsigned long long>(tracer.dropped()));
  print_group(result);
  print_flows(result, /*worst_limit=*/0);
  if (opt.flow_id >= 0 && print_flow_detail(result, opt.flow_id) != 0) {
    return 1;
  }
  print_monitor(result, opt.windows, 0);
  print_profile(result);
  print_artifacts(opt.artifact_dir, result.artifacts);
  return 0;
}

int cmd_monitor(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3 || !find_preset(args[2], &env)) return usage();
  Options opt = parse_options(args, 3);
  if (!opt.ok) return usage();
  opt.monitor = true;
  const auto result = run_with(env, opt, false);
  std::printf("%s: %llu packets/trial, %d runs, mean kappa %.4f\n",
              env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs, result.mean.kappa);
  print_monitor(result, /*window_rows=*/true, /*divergence_limit=*/10);
  print_profile(result);
  print_artifacts(opt.artifact_dir, result.artifacts);
  return 0;
}

int cmd_flows(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3 || !find_preset(args[2], &env)) return usage();
  Options opt = parse_options(args, 3);
  if (!opt.ok) return usage();
  opt.per_flow = true;
  const auto result = run_with(env, opt, false);
  std::printf("%s: %llu packets/trial, %d runs, mean kappa %.4f\n",
              env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs, result.mean.kappa);
  print_group(result);
  print_flows(result, /*worst_limit=*/10);
  if (opt.flow_id >= 0 && print_flow_detail(result, opt.flow_id) != 0) {
    return 1;
  }
  print_artifacts(opt.artifact_dir, result.artifacts);
  return 0;
}

/// `postmortem <env>`: run the replay-group protocol with per-node
/// flight recording, merge the rings into one causal timeline, and walk
/// every bad outcome (eviction, resync, kappa-gate failure, clock
/// anomaly) back to its root cause. `--chaos` injects one of the group
/// failure presets aimed at run 1's replay, so a known-bad run can be
/// produced and diagnosed in one command. Exits 1 only when
/// `--kappa-gate` is set and a round fails it.
int cmd_postmortem(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3 || !find_preset(args[2], &env)) return usage();
  Options opt = parse_options(args, 3);
  if (!opt.ok) return usage();

  testbed::ExperimentConfig cfg;
  cfg.env = env;
  cfg.env.replayers = opt.nodes > 0 ? opt.nodes : 3;
  // Pin the replayer sync servo and the group health cadence the way
  // the group chaos tests do: sub-millisecond beacons make straggler
  // detection observable inside a short trial, and a fixed sigma keeps
  // the arm margin at its 5 ms floor so the chaos windows land on the
  // replay stretch they target at any packet count.
  cfg.env.replayer_sync_fraction_of_run = 0.0;
  cfg.env.replayer_sync_sigma_ns = 25.0;
  cfg.packets = opt.packets;
  cfg.runs = opt.runs;
  cfg.seed = opt.seed;
  cfg.collect_series = false;
  cfg.group.enabled = true;
  cfg.group.config.beacon_interval = microseconds(100);
  cfg.group.config.check_interval = microseconds(250);
  cfg.group.config.straggle_threshold = microseconds(400);
  cfg.group.config.resync_slack = microseconds(50);
  cfg.group.config.resync_retry = microseconds(500);
  cfg.obs.enabled = true;
  cfg.obs.sample_every = opt.trace_sample;
  cfg.artifact_dir = opt.artifact_dir;

  const testbed::ReplaySchedule sched = testbed::replay_schedule(cfg);
  const int target = opt.chaos_node;
  if (opt.chaos == "stall") {
    // Mid-replay NIC stall over two thirds of run 1: long enough that
    // the resync machinery (not the paced retry loop) must recover it.
    cfg.env.faults = fault::group_node_stall_plan(
        target, sched.wall_start(1) + sched.trial_duration / 4,
        2 * sched.trial_duration / 3);
  } else if (opt.chaos == "ctl-loss") {
    // Lossy command path for the whole schedule; the sequenced channel
    // needs its retry envelope widened to keep command semantics.
    cfg.env.control_retry.max_attempts = 6;
    cfg.env.control_retry.initial_backoff = microseconds(100);
    cfg.env.control_retry.multiplier = 2.0;
    cfg.env.control_retry.timeout = milliseconds(4);
    cfg.env.faults = fault::group_control_loss_plan(
        target, 0, sched.round_end(cfg.runs - 1) + milliseconds(10), 0.5);
  } else if (opt.chaos == "clock") {
    cfg.env.faults = fault::group_clock_degrade_plan(
        target, 0, sched.round_end(cfg.runs - 1) + milliseconds(10), 1000.0);
  } else if (!opt.chaos.empty()) {
    std::fprintf(stderr,
                 "choirctl: unknown chaos preset '%s' "
                 "(expected stall, ctl-loss, or clock)\n",
                 opt.chaos.c_str());
    return 2;
  }

  const auto result = run_experiment(cfg);
  std::printf("%s: %llu packets/trial, %d rounds, mean kappa %.4f\n",
              env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs, result.mean.kappa);
  print_group(result);

  const obs::GroupTimeline timeline = obs::merge_timeline(*result.flight_log);
  obs::PostmortemOptions popt;
  popt.kappa_gate = opt.kappa_gate;
  const obs::PostmortemReport report =
      obs::analyze_timeline(*result.flight_log, timeline, popt);
  std::fputs(
      analysis::render_postmortem(*result.flight_log, timeline, report)
          .c_str(),
      stdout);
  if (!opt.artifact_dir.empty()) {
    write_file(opt.artifact_dir + "/postmortem.json",
               analysis::render_postmortem_json(*result.flight_log, timeline,
                                                report));
    std::vector<std::string> names = result.artifacts;
    names.emplace_back("postmortem.json");
    print_artifacts(opt.artifact_dir, std::move(names));
  }
  return report.kappa_gate_failed ? 1 : 0;
}

/// `top <env>`: run with the series sampler on and render a live,
/// whole-registry terminal view — one sparkline row per metric series —
/// refreshed every few samples, with the full table printed at exit.
/// Frames only render on a tty; piped output gets just the final table,
/// so the command stays scriptable.
int cmd_top(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3 || !find_preset(args[2], &env)) return usage();
  Options opt = parse_options(args, 3);
  if (!opt.ok) return usage();
  opt.telemetry = true;
  opt.series_auto = true;
  testbed::ExperimentConfig cfg = make_config(env, opt, false);
  const bool live = isatty(fileno(stdout)) != 0;
  if (live) {
    cfg.telemetry.series_observer = [](Ns t,
                                       const telemetry::SeriesSampler& s) {
      if (s.samples_taken() % 4 != 0) return;
      std::printf("\033[2J\033[H-- choirctl top @ +%.3f ms "
                  "(sample %llu, %zu series) --\n%s",
                  static_cast<double>(t) / 1e6,
                  static_cast<unsigned long long>(s.samples_taken()),
                  s.entries().size(),
                  analysis::render_series_top(s, 24).c_str());
      std::fflush(stdout);
    };
  }
  const auto result = run_experiment(cfg);
  const telemetry::SeriesSampler& series = *result.telemetry_series;
  std::printf("%s: %llu packets/trial, %d runs, mean kappa %.4f\n",
              env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs, result.mean.kappa);
  std::printf("-- series (interval %.3f ms, %llu samples, %zu series) --\n%s",
              static_cast<double>(series.interval()) / 1e6,
              static_cast<unsigned long long>(series.samples_taken()),
              series.entries().size(),
              analysis::render_series_top(series).c_str());
  print_artifacts(opt.artifact_dir, result.artifacts);
  return 0;
}

/// `soak <env>`: N independent rounds at seed, seed+1, ... — the CLI
/// face of the drift detector. Each round runs with the monitor and
/// telemetry on; the per-round mean κ, worst running window κ, worst
/// windowed flow κ, and every counter total become series, and the
/// drift report flags monotone κ decay (Mann-Kendall) and counter-rate
/// outliers. `--drift-gate` turns a drifting verdict into exit 1.
int cmd_soak(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 3 || !find_preset(args[2], &env)) return usage();
  Options opt = parse_options(args, 3);
  if (!opt.ok || opt.rounds < 1) return usage();
  opt.telemetry = true;
  opt.monitor = true;

  std::vector<double> mean_kappa;
  std::vector<double> worst_window;
  std::vector<double> flow_worst;
  std::map<std::string, std::vector<double>> counter_rounds;
  for (int r = 0; r < opt.rounds; ++r) {
    Options round = opt;
    round.seed = opt.seed + static_cast<std::uint64_t>(r);
    const auto result = run_with(env, round, false);
    mean_kappa.push_back(result.mean.kappa);
    double worst = 1.0;
    double fworst = 1.0;
    bool any_flow = false;
    std::size_t windows = 0;
    if (result.monitor != nullptr) {
      for (const auto& w : result.monitor->windows()) {
        ++windows;
        worst = std::min(worst, w.metrics.kappa);
        if (w.has_flows) {
          any_flow = true;
          fworst = std::min(fworst, w.flow_aggregate.worst);
        }
      }
    }
    worst_window.push_back(worst);
    if (any_flow) flow_worst.push_back(fworst);
    const auto snapshot = result.telemetry_registry->snapshot(0);
    for (const auto& [name, value] : snapshot.counters) {
      counter_rounds[name].push_back(static_cast<double>(value));
    }
    std::printf("round %2d: seed %-6llu mean kappa %.4f  "
                "worst window kappa %.4f  (%zu windows)\n",
                r, static_cast<unsigned long long>(round.seed),
                result.mean.kappa, worst, windows);
  }

  monitor::DriftReport report;
  report.findings.push_back(
      monitor::detect_monotone_drift("soak.mean_kappa", mean_kappa));
  report.findings.push_back(monitor::detect_monotone_drift(
      "soak.worst_window_kappa", worst_window));
  if (!flow_worst.empty()) {
    report.findings.push_back(
        monitor::detect_monotone_drift("soak.flow_kappa_worst", flow_worst));
  }
  // Per-round counter totals are per-round rates already (each round has
  // its own registry), so they feed the outlier test directly.
  for (const auto& [name, values] : counter_rounds) {
    report.findings.push_back(
        monitor::detect_rate_anomaly("rate." + name, values));
  }
  std::fputs(monitor::render_drift(report).c_str(), stdout);
  return opt.drift_gate && report.drifting() ? 1 : 0;
}

/// `export <env> <dir>`: one-stop artifact export — the telemetry
/// artifacts with the sampler cadence derived from the run length. The
/// bytes written are deterministic in (seed, scale).
int cmd_export(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 4 || !find_preset(args[2], &env)) return usage();
  Options opt = parse_options(args, 4);
  if (!opt.ok || !set_artifact_dir(opt, args[3])) return usage();
  opt.telemetry = true;
  opt.series_auto = true;
  const auto result = run_with(env, opt, false);
  const telemetry::SeriesSampler& series = *result.telemetry_series;
  std::printf("%s: %llu packets/trial, %d runs, mean kappa %.4f\n",
              env.name.c_str(),
              static_cast<unsigned long long>(result.recorded_packets),
              opt.runs, result.mean.kappa);
  std::printf("%zu series, %llu samples at %.3f ms\n",
              series.entries().size(),
              static_cast<unsigned long long>(series.samples_taken()),
              static_cast<double>(series.interval()) / 1e6);
  print_artifacts(opt.artifact_dir, result.artifacts);
  return 0;
}

int cmd_save(const std::vector<std::string>& args) {
  testbed::EnvironmentPreset env;
  if (args.size() < 4 || !find_preset(args[2], &env)) return usage();
  const std::string dir = args[3];
  const Options opt = parse_options(args, 4);
  if (!opt.ok) return usage();
  const auto result = run_with(env, opt, true);
  for (std::size_t r = 0; r < result.captures.size(); ++r) {
    const std::string base = dir + "/" + env.name + "-run" +
                             std::to_string(r);
    trace::write_trace(result.captures[r], base + ".trc");
    trace::write_pcap(result.captures[r], base + ".pcap");
    std::printf("wrote %s.{trc,pcap} (%zu packets)\n", base.c_str(),
                result.captures[r].size());
  }
  print_metrics(result);
  print_group(result);
  return 0;
}

bool is_pcap_path(const std::string& path) {
  return path.size() > 5 && path.compare(path.size() - 5, 5, ".pcap") == 0;
}

trace::Capture load_capture(const std::string& path) {
  if (is_pcap_path(path)) return trace::read_pcap(path);
  // Native traces go through the mapped loader (falls back to a stream
  // read transparently where mmap is unavailable).
  return trace::MappedCapture(path).materialize();
}

/// Build a comparison trial from a capture file. Native traces decode
/// ids and timestamps straight from the mapped bytes — the 48-byte
/// headers the metrics never look at are never copied.
core::Trial load_trial(const std::string& path) {
  if (is_pcap_path(path)) return testbed::rebased_trial(trace::read_pcap(path));
  return testbed::rebased_trial(trace::MappedCapture(path));
}

int cmd_compare(const std::vector<std::string>& args) {
  if (args.size() < 4) return usage();
  const auto a = load_trial(args[2]);
  const auto b = load_trial(args[3]);
  core::ComparisonOptions copt;
  copt.collect_series = true;
  const auto cmp = core::compare_trials(a, b, copt);
  std::printf(
      "|A|=%zu |B|=%zu common=%zu moved=%zu\n"
      "U=%s O=%s I=%s L=%s kappa=%.4f (+-10ns %.2f%%)\n",
      cmp.size_a, cmp.size_b, cmp.common, cmp.moved,
      analysis::format_metric(cmp.metrics.uniqueness).c_str(),
      analysis::format_metric(cmp.metrics.ordering).c_str(),
      analysis::format_metric(cmp.metrics.iat).c_str(),
      analysis::format_metric(cmp.metrics.latency).c_str(),
      cmp.metrics.kappa, 100.0 * cmp.fraction_iat_within(10.0));
  return 0;
}

/// `partition <trace> <n> <dir>`: the offline half of the group story —
/// split a recorded trace into the per-node sub-traces a replay group
/// would load, one flow-sharded `.trc` per node, timelines rebased so
/// every node replays relative to the same epoch.
int cmd_partition(const std::vector<std::string>& args) {
  if (args.size() < 5) return usage();
  const int nodes = std::atoi(args[3].c_str());
  if (nodes < 1 || nodes > 64) {
    std::fprintf(stderr, "choirctl: node count must be in 1..64\n");
    return 1;
  }
  const trace::Capture cap = load_capture(args[2]);
  if (cap.size() == 0) {
    std::fprintf(stderr, "choirctl: '%s' holds no packets\n", args[2].c_str());
    return 1;
  }
  const trace::PartitionResult part =
      trace::partition_capture(cap, static_cast<std::size_t>(nodes));
  const std::string stem = std::filesystem::path(args[2]).stem().string();
  std::filesystem::create_directories(args[4]);
  for (std::size_t n = 0; n < part.nodes.size(); ++n) {
    const std::string path =
        args[4] + "/" + stem + ".node" + std::to_string(n) + ".trc";
    trace::write_trace(part.nodes[n], path);
    std::printf("wrote %s (%zu packets)\n", path.c_str(),
                part.nodes[n].size());
  }
  std::printf("%zu packets -> %d nodes, epoch %lld ns, %llu unclassified\n",
              cap.size(), nodes, static_cast<long long>(part.epoch),
              static_cast<unsigned long long>(part.unclassified));
  return 0;
}

/// `bench --compare A B` — explains a BENCH_*.json byte mismatch: diff
/// every report in baseline directory A against its namesake in B
/// (`bench_paper <id> --json` writes them) leaf by leaf. Exits 0 when
/// every leaf is identical (added leaves are listed but pass), 1 on any
/// changed or missing leaf or file.
int cmd_bench(const std::vector<std::string>& args) {
  if (args.size() != 5 || args[2] != "--compare") return usage();
  std::string text;
  const int failing = analysis::compare_bench_dirs(args[3], args[4], &text);
  std::fputs(text.c_str(), stdout);
  return failing > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  if (args.size() < 2) return usage();
  try {
    const std::string& command = args[1];
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(args, false);
    if (command == "figure") return cmd_run(args, true);
    if (command == "save") return cmd_save(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "monitor") return cmd_monitor(args);
    if (command == "flows") return cmd_flows(args);
    if (command == "postmortem") return cmd_postmortem(args);
    if (command == "top") return cmd_top(args);
    if (command == "soak") return cmd_soak(args);
    if (command == "export") return cmd_export(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "partition") return cmd_partition(args);
    if (command == "bench") return cmd_bench(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "choirctl: %s\n", error.what());
    return 1;
  }
  return usage();
}
