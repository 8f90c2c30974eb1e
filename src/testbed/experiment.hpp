// Experiment runner: builds a preset's topology, records a generator
// stream through the Choir middlebox(es), runs N replays, captures each
// at the recorder, and evaluates the Section 3 metrics of every run
// against the first (run "A"), exactly as the paper's evaluations do.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "choir/group.hpp"
#include "choir/middlebox.hpp"
#include "core/metrics.hpp"
#include "fault/injector.hpp"
#include "flow/flow_kappa.hpp"
#include "monitor/stream_monitor.hpp"
#include "obs/flight_log.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/span_profiler.hpp"
#include "telemetry/tracer.hpp"
#include "testbed/presets.hpp"
#include "trace/capture.hpp"
#include "trace/trace_file.hpp"

namespace choir::testbed {

/// Which engine re-transmits the recording (Section 9 ablations). The
/// recording itself is always made by the Choir middlebox.
enum class ReplayEngine {
  kChoir,     ///< TSC-paced busy loop (the paper's design)
  kSleep,     ///< tcpreplay-style OS-timer sleeps
  kBusyWait,  ///< gettimeofday busy-wait (microsecond grid)
  kGapFill,   ///< MoonGen/GapReplay invalid-packet gap filling
};

/// The engine's one short name ("choir", "sleep", "busywait",
/// "gapfill"): the `choirctl --engine` value and the suffix of an
/// ablation case name in BENCH_*.json.
const char* engine_tag(ReplayEngine engine);

/// Inverse of engine_tag; nullopt for a name no engine has.
std::optional<ReplayEngine> parse_engine(std::string_view tag);

/// Observability for a run. Telemetry is zero-perturbation: with the
/// same seed, every metric of the run is bit-identical whether it is
/// enabled or not (enforced by the determinism regression test). Its
/// artifacts (ExperimentConfig::artifact_dir): counters.jsonl (registry
/// snapshots), histograms.csv (percentiles), trace.json (Chrome/Perfetto
/// trace), series.jsonl and metrics.prom (docs/SERIES.md).
struct TelemetryOptions {
  bool enabled = false;
  /// Sim-time cadence of the one sampler (must be > 0): each tick keeps
  /// a registry snapshot and samples every counter, gauge and
  /// histogram-percentile set into its fixed-capacity ring series.
  Ns series_interval = milliseconds(5);
  /// Ring capacity per metric series.
  std::size_t series_capacity = 4096;
  /// Host-side observer invoked after every completed series sample —
  /// what `choirctl top` renders live frames from. Pure consumer: it
  /// runs outside the simulation state, so installing one cannot change
  /// a seeded run.
  std::function<void(Ns, const telemetry::SeriesSampler&)> series_observer;
  /// Host-time span profiling of the hot paths (record drain, replay
  /// pacing, κ compute, monitor windows). Off by default because host
  /// timestamps are nondeterministic, which would break byte-identical
  /// artifacts; the simulation itself stays bit-identical either way.
  /// Turns the telemetry session on by itself. Adds `profile.csv` and a
  /// "profiler (host ns)" track to `trace.json`.
  bool profile = false;
};

/// Streaming consistency monitoring for a run (see docs/MONITOR.md).
/// Like telemetry, strictly an observer: a seeded run is bit-identical
/// with the monitor on or off. Artifacts: divergence.jsonl, windows.csv.
struct MonitorOptions {
  bool enabled = false;
  /// Packets of each monitored stream per κ window.
  std::size_t window_packets = 8192;
  /// Attribution entries per window per kind; 0 disables attribution.
  std::size_t top_k = 16;
};

/// Many-flow workload + per-flow evaluation (see docs/FLOWS.md).
/// When enabled, each generator fans its aggregate stream over
/// `flows / replayers` synthetic 5-tuples, the recorder classifies
/// in-path (per-shard `flow.<s>.…` telemetry), and evaluation adds
/// per-flow κ with cross-flow aggregates (per monitor window too).
/// Like telemetry/monitoring, classification observes the simulation
/// without perturbing it — only the generated addresses differ from a
/// single-flow run.
struct FlowOptions {
  bool enabled = false;
  /// Total synthetic flows across generators (>= 1).
  std::uint32_t flows = 1024;
  /// Namespaces of the recorder's `flow.<s>.*` counters (a flow's shard
  /// is flow::shard_of_key). The evaluation does not read it.
  int shards = 8;
};

/// Group-wide flight recording (docs/POSTMORTEM.md). When enabled, the
/// coordinator and every replayer node get a fixed-size, allocation-free
/// event ring wired into the control channel, the group state machine,
/// the PTP servo, and the fault layer; after the run the rings merge
/// into one causally ordered group timeline. Strictly an observer: a
/// seeded run's metrics and captures are bit-identical with recording
/// on or off (enforced by the obs determinism test). Artifacts:
/// group_trace.json (Chrome trace with causal flow arrows) and
/// events.jsonl (the merged timeline, one JSON object per event).
struct ObsOptions {
  bool enabled = false;
  /// Record round-affine events only every Nth replay round (<= 1:
  /// every round). Round-less events (fault activations, PTP syncs,
  /// record-phase commands) always record.
  int sample_every = 1;
};

/// N-node replay group mode (docs/DISTRIBUTED.md). When enabled, the
/// hardwired per-path controllers are replaced by one GroupCoordinator
/// on a dedicated controller node: record and replay are commanded over
/// its control NIC, every replay round is barrier-started against the
/// members' readiness beacons, and stragglers are detected/resynced
/// (or evicted) from progress beacons. Requires the Choir engine.
struct GroupOptions {
  bool enabled = false;
  app::GroupConfig config;
};

/// Exact split of `total` packets over `replayers` streams: stream `i`
/// gets the floor share plus one of the remainder packets (streams
/// 0..total%replayers-1 absorb it), so the shares always sum to `total`.
constexpr std::uint64_t packets_for_replayer(std::uint64_t total,
                                             int replayers, int i) {
  const auto n = static_cast<std::uint64_t>(replayers);
  return total / n +
         (static_cast<std::uint64_t>(i) < total % n ? 1 : 0);
}

struct ExperimentConfig {
  EnvironmentPreset env;
  /// Total packets per trial (split across replayers in dual topologies).
  std::uint64_t packets = 100'000;
  /// Number of replays ("runs"); the paper uses 5 (A plus B-E).
  int runs = 5;
  std::uint64_t seed = 1;
  /// Collect per-packet delta series (needed for figures).
  bool collect_series = true;
  /// Keep every run's raw capture in the result: the only mode that
  /// holds every capture (88 B per packet per run). Otherwise each run is
  /// closed into its trial and compared against run A at its round end,
  /// the next run refills the same capture buffer, and the buffer is
  /// freed before the last run's comparison.
  bool keep_captures = false;
  ReplayEngine engine = ReplayEngine::kChoir;
  /// No effect: every run is classified and compared at its round close
  /// on the thread that runs the experiment. Kept for the benchmark
  /// harness, which sets it (ROADMAP "Mend perfbench").
  int eval_jobs = 0;
  TelemetryOptions telemetry;
  MonitorOptions monitor;
  FlowOptions flow;
  GroupOptions group;
  ObsOptions obs;
  /// When non-empty, run_experiment creates this directory (if missing)
  /// and writes the artifacts of every enabled observer into it; their
  /// file names never collide. Empty: observers run, nothing is written.
  std::string artifact_dir;
};

/// The experiment's replay timetable — a pure function of the config,
/// exposed so offline tools (`choirctl postmortem` aiming chaos windows
/// at a specific round, the obs tests asserting round boundaries) can
/// reproduce the exact instants run_experiment uses without duplicating
/// its constants.
struct ReplaySchedule {
  Ns gen_start = 0;          ///< first generated packet
  Ns trial_duration = 0;     ///< nominal stream duration
  double sync_sigma_ns = 0;  ///< effective replayer PTP residual sigma
  Ns arm_margin = 0;         ///< capture arm margin around each replay
  Ns record_end = 0;         ///< stop-record instant
  Ns replay_base = 0;        ///< run 0's replay wall-clock start
  Ns run_spacing = 0;        ///< wall-clock gap between run starts

  Ns wall_start(int run) const { return replay_base + run * run_spacing; }
  Ns round_end(int run) const {
    return wall_start(run) + trial_duration + arm_margin;
  }
};

ReplaySchedule replay_schedule(const ExperimentConfig& config);

struct ExperimentResult {
  /// Comparison of run 1+i against run 0; runs-1 entries.
  std::vector<core::ComparisonResult> comparisons;
  /// Component-wise mean over the comparisons (a Table 2 row).
  core::ConsistencyMetrics mean;

  std::vector<std::size_t> capture_sizes;  ///< per run
  std::vector<trace::Capture> captures;    ///< iff keep_captures

  // Provenance / diagnostics.
  std::vector<app::MiddleboxStats> middlebox_stats;  ///< per replayer
  std::uint64_t recorded_packets = 0;
  std::uint64_t recorder_rx_drops = 0;   ///< RX pipeline overflow
  std::uint64_t recorder_imissed = 0;    ///< VF ring overflow
  std::uint64_t switch_queue_drops = 0;
  std::uint64_t replay_tx_drops = 0;     ///< replayer egress tail drops
  Ns trial_duration = 0;                 ///< nominal stream duration
  /// Events the simulation fired, per scheduling component (the event
  /// ledger); indexed by sim::Component.
  sim::EventLedger events_by_component{};

  // Adversity accounting (all zero unless the preset carries faults).
  fault::FaultStats fault_stats;           ///< injected-fault totals
  std::uint64_t control_retries = 0;       ///< redundant control sends
  std::uint64_t control_send_failures = 0; ///< locally failed attempts
  std::uint64_t control_timeouts = 0;      ///< backoff windows exhausted
  std::uint64_t generator_alloc_failures = 0;  ///< frames lost at the gen

  // Replay-group protocol outcome; populated iff config.group.enabled.
  app::GroupStats group_stats;
  std::vector<app::GroupMemberStatus> group_members;

  // Telemetry artifacts; populated iff telemetry is on
  // (config.telemetry.enabled or .profile).
  std::shared_ptr<telemetry::Registry> telemetry_registry;
  std::shared_ptr<telemetry::Tracer> telemetry_trace;
  std::vector<telemetry::Snapshot> telemetry_samples;
  /// Per-metric ring-buffer series (docs/SERIES.md).
  std::shared_ptr<telemetry::SeriesSampler> telemetry_series;

  // Per-flow evaluation; populated iff config.flow.enabled. One entry
  // per comparison (run 1+i vs run 0), keys matched by 5-tuple+stream.
  std::vector<flow::FlowSetComparison> flow_comparisons;
  std::size_t flow_count = 0;           ///< distinct flows in run A
  std::uint64_t flow_unclassified = 0;  ///< recorder frames w/o a flow key

  /// Streaming monitor (windows, divergence records, per-stream counts;
  /// each stream's whole-run metrics are `comparisons`); populated iff
  /// config.monitor.enabled.
  std::shared_ptr<monitor::StreamMonitor> monitor;
  /// Per-node flight rings + clock histories; populated iff
  /// config.obs.enabled. Merge with obs::merge_timeline for analysis.
  std::shared_ptr<obs::FlightLog> flight_log;
  /// Host-time span profile; populated iff config.telemetry.profile.
  std::shared_ptr<telemetry::SpanProfiler> profile;
  /// Files written into config.artifact_dir, in write order.
  std::vector<std::string> artifacts;
};

/// Run one full experiment. Deterministic in (config, seed).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Mean of each metric component over a set of comparisons.
core::ConsistencyMetrics mean_metrics(
    const std::vector<core::ComparisonResult>& comparisons);

/// Rebase a capture's timestamps so its first packet is at 0 and build
/// the metrics trial (the paper evaluates each pcap on its own timebase).
core::Trial rebased_trial(const trace::Capture& capture);

/// Same, straight from a mapped trace file — ids and timestamps decode
/// from the page cache without materializing a Capture first.
core::Trial rebased_trial(const trace::MappedCapture& capture);

}  // namespace choir::testbed
