#include "testbed/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/export.hpp"
#include "choir/controller.hpp"
#include "choir/middlebox.hpp"
#include "common/expect.hpp"
#include "common/task_pool.hpp"
#include "core/compare_scratch.hpp"
#include "fault/injector.hpp"
#include "gen/generator.hpp"
#include "gen/multi_flow.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/noise.hpp"
#include "net/switch.hpp"
#include "obs/group_trace.hpp"
#include "replay/baselines.hpp"
#include "replay/gapfill.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/ptp.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/flow_classify.hpp"
#include "trace/recorder.hpp"

namespace choir::testbed {

namespace {

// Node indices for stable MAC/IP assignment. Replayer i is 10+i (so at
// most 64 replayers before colliding with the high generator range);
// generators 0/1 keep their historic ids and later ones start at 102,
// past every replayer id.
enum NodeId : std::uint16_t {
  kGen0 = 1,
  kGen1 = 2,
  kController = 3,
  kRecorder = 4,
  kNoiseClient = 5,
  kNoiseSink = 6,
  kReplayer0 = 10,
  kReplayer1 = 11,
  kGenHighBase = 100,  ///< generator i >= 2 gets kGenHighBase + i
};

std::uint16_t gen_node_id(int i) {
  return static_cast<std::uint16_t>(i < 2 ? kGen0 + i : kGenHighBase + i);
}

std::uint16_t repl_node_id(int i) {
  return static_cast<std::uint16_t>(kReplayer0 + i);
}

pktio::FlowAddress flow_between(std::uint16_t src, std::uint16_t dst,
                                std::uint16_t src_port = 7000,
                                std::uint16_t dst_port = 7001) {
  pktio::FlowAddress f;
  f.src_mac = pktio::mac_for_node(src);
  f.dst_mac = pktio::mac_for_node(dst);
  f.src_ip = pktio::ip_for_node(src);
  f.dst_ip = pktio::ip_for_node(dst);
  f.src_port = src_port;
  f.dst_port = dst_port;
  return f;
}

/// One replay path: generator port -> middlebox -> (switch) -> recorder.
struct ReplayPath {
  std::unique_ptr<net::Link> gen_to_switch;
  std::unique_ptr<net::PhysNic> gen_phys;
  net::Vf* gen_vf = nullptr;
  net::Vf* ctl_vf = nullptr;
  /// Controller -> replayer control flow; computed once at path setup
  /// instead of re-deriving the MAC/IP tuple per run per command.
  pktio::FlowAddress ctl_flow;

  std::unique_ptr<net::Link> repl_in_stub;   // unused egress of the in-port
  std::unique_ptr<net::PhysNic> repl_in_phys;
  net::Vf* repl_in_vf = nullptr;

  std::unique_ptr<net::Link> repl_out_to_switch;
  std::unique_ptr<net::PhysNic> repl_out_phys;
  net::Vf* repl_out_vf = nullptr;

  /// This node's index in the PTP sync group (group barriers sample it).
  std::size_t ptp_slave = SIZE_MAX;
  /// Switch egress port feeding the replayer's in-port (group-mode
  /// control commands ride it; fault point "link.to-repl<i>").
  std::size_t port_to_repl = 0;

  std::unique_ptr<sim::NodeClock> clock;
  // Pools are declared before the middlebox so they are destroyed after
  // it: the middlebox's recording holds references into gen_pool.
  std::unique_ptr<pktio::Mempool> gen_pool;
  std::unique_ptr<pktio::Mempool> ctl_pool;
  std::unique_ptr<pktio::Mempool> beacon_pool;
  std::unique_ptr<app::Middlebox> middlebox;
  std::unique_ptr<app::Controller> controller;
  std::unique_ptr<gen::CbrGenerator> generator;
  std::unique_ptr<gen::MultiFlowGenerator> multi_generator;
  // Baseline engines (Section 9 ablations); at most one is active.
  std::unique_ptr<replay::PacedReplayerBase> baseline;
  std::unique_ptr<replay::GapFillReplayer> gapfill;
};

}  // namespace

core::Trial rebased_trial(const trace::Capture& capture) {
  core::Trial trial = capture.to_trial();
  trial.rebase_to_zero();
  return trial;
}

core::Trial rebased_trial(const trace::MappedCapture& capture) {
  core::Trial trial = capture.to_trial();
  trial.rebase_to_zero();
  return trial;
}

ReplaySchedule replay_schedule(const ExperimentConfig& config) {
  const EnvironmentPreset& env = config.env;
  ReplaySchedule s;
  s.gen_start = milliseconds(10);
  const double total_gap_ns = mean_iat_ns(env.frame_bytes, env.rate);
  s.trial_duration =
      static_cast<Ns>(total_gap_ns * static_cast<double>(config.packets));
  s.sync_sigma_ns = env.replayer_sync_fraction_of_run > 0.0
                        ? env.replayer_sync_fraction_of_run *
                              static_cast<double>(s.trial_duration)
                        : env.replayer_sync_sigma_ns;
  s.record_end = s.gen_start + s.trial_duration + milliseconds(5);
  s.arm_margin = std::max<Ns>(milliseconds(5),
                              static_cast<Ns>(6.0 * s.sync_sigma_ns));
  s.run_spacing = s.trial_duration + 2 * s.arm_margin + milliseconds(40);
  s.replay_base = s.record_end + milliseconds(30) + s.arm_margin;
  return s;
}

core::ConsistencyMetrics mean_metrics(
    const std::vector<core::ComparisonResult>& comparisons) {
  core::ConsistencyMetrics m;
  if (comparisons.empty()) return m;
  m.kappa = 0.0;
  for (const auto& c : comparisons) {
    m.uniqueness += c.metrics.uniqueness;
    m.ordering += c.metrics.ordering;
    m.latency += c.metrics.latency;
    m.iat += c.metrics.iat;
    m.kappa += c.metrics.kappa;
  }
  const auto n = static_cast<double>(comparisons.size());
  m.uniqueness /= n;
  m.ordering /= n;
  m.latency /= n;
  m.iat /= n;
  m.kappa /= n;
  return m;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const EnvironmentPreset& env = config.env;
  const bool group_on = config.group.enabled;
  CHOIR_EXPECT(env.replayers >= 1 && env.replayers <= 64,
               "experiments support 1 to 64 replayers");
  CHOIR_EXPECT(group_on || env.replayers <= 2,
               "more than 2 replayers requires group mode");
  CHOIR_EXPECT(!group_on || config.engine == ReplayEngine::kChoir,
               "the replay group protocol drives the Choir engine only");
  CHOIR_EXPECT(config.runs >= 2, "need at least two runs to compare");

  // ---- Telemetry session ----------------------------------------------
  // Installed before any component is constructed so every layer binds
  // its handles. Strictly an observer of the simulation: it must never
  // change what a seeded run computes (see TelemetryOptions).
  std::shared_ptr<telemetry::Registry> registry;
  std::shared_ptr<telemetry::Tracer> tracer;
  std::optional<telemetry::ScopedTelemetry> telemetry_session;
  if (config.telemetry.enabled) {
    registry = std::make_shared<telemetry::Registry>();
    tracer =
        std::make_shared<telemetry::Tracer>(config.telemetry.max_trace_events);
    telemetry_session.emplace(registry.get(), tracer.get());
  }

  // Host-time span profiler: a separate session from telemetry because
  // host timestamps are nondeterministic (see TelemetryOptions::profile).
  std::shared_ptr<telemetry::SpanProfiler> profiler;
  std::optional<telemetry::ScopedProfiler> profiler_session;
  if (config.telemetry.enabled && config.telemetry.profile) {
    profiler = std::make_shared<telemetry::SpanProfiler>();
    profiler_session.emplace(profiler.get());
  }

  // ---- Monitor session -------------------------------------------------
  // Installed before the topology so the capture daemon binds its feed
  // pointer at construction. Run 0's capture becomes the reference; each
  // later run is monitored against it as it streams in.
  std::shared_ptr<monitor::StreamMonitor> stream_monitor;
  std::optional<monitor::ScopedMonitor> monitor_session;
  if (config.monitor.enabled) {
    monitor::MonitorConfig mcfg;
    mcfg.window_packets = config.monitor.window_packets;
    mcfg.top_k = config.monitor.top_k;
    stream_monitor = std::make_shared<monitor::StreamMonitor>(mcfg);
    monitor_session.emplace(stream_monitor.get());
  }

  // ---- Flight recording ------------------------------------------------
  // One ring per participating node plus the merger's side tables.
  // Attached below through null-check hooks only; with obs disabled
  // every hook pointer stays null and the run is bit-identical.
  std::shared_ptr<obs::FlightLog> flight_log;
  if (config.obs.enabled) {
    flight_log = std::make_shared<obs::FlightLog>(config.obs.ring_events,
                                                  config.obs.sample_every);
  }

  // Experiment phase spans (no-ops unless a profiler is installed).
  std::optional<telemetry::ProfileSpan> phase_prof;
  phase_prof.emplace("experiment.build");

  sim::EventQueue queue;
  Rng root(config.seed * 0x9e3779b97f4a7c15ULL + 0x43484f4952ULL);

  std::optional<telemetry::Sampler> sampler;
  std::shared_ptr<telemetry::SeriesSampler> series;
  if (config.telemetry.enabled) {
    sampler.emplace(queue, *registry, config.telemetry.sample_period);
    sampler->start();
    if (config.telemetry.series_interval > 0) {
      telemetry::SeriesConfig series_cfg;
      series_cfg.interval = config.telemetry.series_interval;
      series_cfg.capacity = config.telemetry.series_capacity;
      series = std::make_shared<telemetry::SeriesSampler>(queue, *registry,
                                                          series_cfg);
      if (config.telemetry.series_observer) {
        series->set_sink([observer = config.telemetry.series_observer,
                          s = series.get()](Ns t) { observer(t, *s); });
      }
      series->start();
    }
  }

  // ---- Clocks & PTP --------------------------------------------------
  sim::NodeClock gen_clock{sim::TscClock(2.5, root.uniform(-5, 5)),
                           sim::SystemClock(0, root.uniform(-0.5, 0.5))};
  sim::NodeClock rec_clock{sim::TscClock(2.5, root.uniform(-5, 5)),
                           sim::SystemClock(0, root.uniform(-0.5, 0.5))};

  const std::uint64_t total_packets = config.packets;
  // Every schedule instant comes from the shared timetable so offline
  // tools (choirctl postmortem) see the exact same rounds.
  const ReplaySchedule sched = replay_schedule(config);
  const Ns trial_duration = sched.trial_duration;
  const double sync_sigma = sched.sync_sigma_ns;

  sim::PtpService ptp(queue, env.ptp, root.split(0x505450));
  ptp.add_slave(&gen_clock.system);
  ptp.add_slave(&rec_clock.system);

  // ---- Switch ----------------------------------------------------------
  net::Switch sw(queue, env.switch_config, root.split(0x5357));

  // Declared before the topology (constructed after it): duplicated
  // frames live in the injector's private pool, and components may still
  // hold them when they are torn down, so the injector must die last.
  std::unique_ptr<fault::FaultInjector> injector;

  // ---- Recorder --------------------------------------------------------
  // NIC configs are copied to stamp telemetry labels; the labels carry no
  // timing information.
  auto rec_stub = std::make_unique<net::Link>(queue);
  net::NicConfig rec_nic = env.recorder_nic;
  rec_nic.name = "recorder";
  net::PhysNic rec_phys(queue, rec_nic, root.split(0x524543), *rec_stub);
  net::Vf& rec_vf = rec_phys.add_vf(pktio::mac_for_node(kRecorder));
  // In-path flow classification is an observer: daemon behavior on the
  // simulated timeline is identical with shards on or off.
  const bool flows_on = config.flow.enabled;
  const int flow_shards = flows_on ? std::max(1, config.flow.shards) : 0;
  trace::CaptureDaemon daemon(queue, rec_vf, {}, root.split(0x444d),
                              "recorder", flow_shards);
  const std::size_t rec_port_in = sw.add_port();  // egress to recorder
  sw.egress_link(rec_port_in).connect(rec_phys);

  // ---- Controller node (group mode only) -------------------------------
  // A dedicated coordinator node with its own clock, NIC, and switch
  // ports. Everything here — including its RNG splits — is gated on
  // group_on so legacy runs stay bit-identical to the committed
  // baselines (Rng::split consumes parent state).
  std::unique_ptr<sim::NodeClock> ctl_clock;
  std::unique_ptr<net::Link> ctl_link;
  std::unique_ptr<net::PhysNic> ctl_phys;
  net::Vf* group_ctl_vf = nullptr;
  std::unique_ptr<pktio::Mempool> group_ctl_pool;
  std::unique_ptr<app::GroupCoordinator> group;
  std::size_t ctl_port_out = 0;
  std::size_t ctl_ptp_slave = SIZE_MAX;
  if (group_on) {
    ctl_clock = std::make_unique<sim::NodeClock>(
        sim::NodeClock{sim::TscClock(2.5, root.uniform(-5, 5)),
                       sim::SystemClock(0, root.uniform(-0.5, 0.5))});
    ctl_ptp_slave = ptp.add_slave(&ctl_clock->system);
    ctl_link = std::make_unique<net::Link>(queue);
    net::NicConfig ctl_nic = env.generator_nic;
    ctl_nic.name = "ctl";
    ctl_phys = std::make_unique<net::PhysNic>(queue, ctl_nic,
                                              root.split(0x4754), *ctl_link);
    group_ctl_vf = &ctl_phys->add_vf(pktio::mac_for_node(kController));
    const std::size_t ctl_port_in = sw.add_port();
    ctl_port_out = sw.add_port();
    ctl_link->connect(sw.ingress(ctl_port_in));
    sw.egress_link(ctl_port_out).connect(*ctl_phys);
    // Group-mode routing is MAC-based: commands find each replayer's
    // in-port, beacons find the coordinator, replayed/forwarded data
    // finds the recorder. (Static per-port forwards would pin one
    // destination per ingress, which only works for the 2-node wiring.)
    sw.set_mac_route(pktio::mac_for_node(kController), ctl_port_out);
    sw.set_mac_route(pktio::mac_for_node(kRecorder), rec_port_in);
    group_ctl_pool = std::make_unique<pktio::Mempool>(256, "ctl");
    group = std::make_unique<app::GroupCoordinator>(
        queue, *ctl_clock, *group_ctl_vf, *group_ctl_pool,
        config.group.config, root.split(0x4752), &ptp);
    group->controller().set_retry(env.control_retry);
    if (flight_log != nullptr) {
      group->set_flight_recorder(
          &flight_log->add_node(kController, "coordinator"));
    }
  }

  // ---- Replay paths ----------------------------------------------------
  std::vector<ReplayPath> paths(static_cast<std::size_t>(env.replayers));
  for (int i = 0; i < env.replayers; ++i) {
    ReplayPath& p = paths[static_cast<std::size_t>(i)];
    Rng prng = root.split(0x5041 + static_cast<std::uint64_t>(i));
    const std::uint16_t gen_id = gen_node_id(i);
    const std::uint16_t repl_id = repl_node_id(i);

    p.clock = std::make_unique<sim::NodeClock>(
        sim::NodeClock{sim::TscClock(2.5, prng.uniform(-5, 5)),
                       sim::SystemClock(0, prng.uniform(-0.5, 0.5))});
    p.ptp_slave = ptp.add_slave(&p.clock->system, sync_sigma);

    // Generator port -> switch -> replayer in-port.
    p.gen_to_switch = std::make_unique<net::Link>(queue);
    net::NicConfig gen_nic = env.generator_nic;
    gen_nic.name = "gen" + std::to_string(i);
    p.gen_phys = std::make_unique<net::PhysNic>(queue, gen_nic,
                                                prng.split(1), *p.gen_to_switch);
    p.gen_vf = &p.gen_phys->add_vf(pktio::mac_for_node(gen_id));
    if (!group_on) {
      // Legacy wiring: the per-path controller shares the generator NIC.
      p.ctl_vf = &p.gen_phys->add_vf(pktio::mac_for_node(kController));
    }
    const std::size_t port_from_gen = sw.add_port();
    const std::size_t port_to_repl = sw.add_port();
    p.port_to_repl = port_to_repl;
    p.gen_to_switch->connect(sw.ingress(port_from_gen));
    sw.set_port_forward(port_from_gen, port_to_repl);

    p.repl_in_stub = std::make_unique<net::Link>(queue);
    net::NicConfig repl_in_nic = env.replayer_nic;
    repl_in_nic.name = "repl" + std::to_string(i) + "-in";
    p.repl_in_phys = std::make_unique<net::PhysNic>(
        queue, repl_in_nic, prng.split(2), *p.repl_in_stub);
    p.repl_in_vf = &p.repl_in_phys->add_vf(
        pktio::mac_for_node(repl_id), /*promiscuous=*/true);
    sw.egress_link(port_to_repl).connect(*p.repl_in_phys);

    // Replayer out-port -> switch -> recorder (merged in dual setups).
    p.repl_out_to_switch = std::make_unique<net::Link>(queue);
    net::NicConfig repl_out_nic = env.replayer_nic;
    repl_out_nic.name = "repl" + std::to_string(i) + "-out";
    p.repl_out_phys = std::make_unique<net::PhysNic>(
        queue, repl_out_nic, prng.split(3), *p.repl_out_to_switch);
    p.repl_out_vf =
        &p.repl_out_phys->add_vf(pktio::mac_for_node(repl_id), true);
    const std::size_t port_from_repl = sw.add_port();
    p.repl_out_to_switch->connect(sw.ingress(port_from_repl));
    if (group_on) {
      // No static forward: the out-port carries both replayed data (to
      // the recorder) and beacons (to the coordinator), split by the
      // MAC routes installed above. Commands reach this replayer's
      // in-port by its MAC.
      sw.set_mac_route(pktio::mac_for_node(repl_id), port_to_repl);
    } else {
      sw.set_port_forward(port_from_repl, rec_port_in);
    }

    app::ChoirConfig choir_cfg = env.choir;
    choir_cfg.replayer_id = repl_id;
    choir_cfg.stream_id = static_cast<std::uint32_t>(i);
    p.middlebox = std::make_unique<app::Middlebox>(
        queue, *p.clock, *p.repl_in_vf, *p.repl_out_vf, choir_cfg,
        prng.split(4));
    p.middlebox->start();
    p.ctl_flow = flow_between(kController, repl_id);
    if (flight_log != nullptr) {
      p.middlebox->set_flight_recorder(
          &flight_log->add_node(repl_id, "repl" + std::to_string(i)));
    }

    if (group_on) {
      // Group member: beacons to the coordinator from a dedicated pool;
      // the coordinator owns the command side of the flow.
      p.beacon_pool = std::make_unique<pktio::Mempool>(
          64, "beacon" + std::to_string(i));
      app::Middlebox::GroupMemberOptions member;
      member.beacon_flow = flow_between(repl_id, kController);
      member.beacon_interval = config.group.config.beacon_interval;
      p.middlebox->enable_group(*p.beacon_pool, member);
      group->add_member(repl_id, p.ctl_flow, p.ptp_slave);
    } else {
      p.ctl_pool =
          std::make_unique<pktio::Mempool>(64, "ctl" + std::to_string(i));
      p.controller = std::make_unique<app::Controller>(
          queue, gen_clock, *p.ctl_vf, *p.ctl_pool);
      p.controller->set_retry(env.control_retry);
      if (flight_log != nullptr) {
        // Legacy per-path controllers all act for the controller node;
        // they share its ring (add_node is idempotent).
        p.controller->set_flight_recorder(
            &flight_log->add_node(kController, "controller"));
      }
    }

    const std::uint64_t per_stream =
        packets_for_replayer(total_packets, env.replayers, i);
    p.gen_pool = std::make_unique<pktio::Mempool>(per_stream + 8192,
                                                  "gen" + std::to_string(i));
    gen::StreamConfig stream;
    stream.flow = flow_between(gen_id, kRecorder);
    stream.stream_id = static_cast<std::uint32_t>(i);
    stream.frame_bytes = env.frame_bytes;
    stream.rate = env.rate / env.replayers;
    stream.count = per_stream;
    stream.start = milliseconds(10);
    if (config.flow.enabled && config.flow.flows > 1) {
      // Fan the aggregate over this generator's share of the flows; the
      // pacing, counts and payload tokens match the single-flow path.
      gen::MultiFlowConfig mf;
      mf.base = stream;
      mf.flows = std::max<std::uint32_t>(
          1, config.flow.flows / static_cast<std::uint32_t>(env.replayers));
      p.multi_generator = std::make_unique<gen::MultiFlowGenerator>(
          queue, *p.gen_vf, *p.gen_pool, mf);
    } else {
      p.generator = std::make_unique<gen::CbrGenerator>(queue, *p.gen_vf,
                                                        *p.gen_pool, stream);
    }
  }

  // ---- Background noise ------------------------------------------------
  std::unique_ptr<pktio::Mempool> noise_pool;
  std::unique_ptr<net::NoiseSource> noise;
  std::unique_ptr<net::Link> noise_link_a;
  std::unique_ptr<net::PhysNic> noise_phys_a;
  std::unique_ptr<net::Link> noise_stub_b;
  std::unique_ptr<net::PhysNic> noise_phys_b;
  std::unique_ptr<trace::CaptureDaemon> noise_server;
  if (env.with_noise) {
    noise_pool = std::make_unique<pktio::Mempool>(16384, "noise");
    net::Vf* client_vf = nullptr;
    net::Vf* sink_vf = nullptr;
    if (env.noise_shares_path) {
      // iperf client co-located with the replayer, server with the
      // recorder: both legs ride the experiment's physical NICs.
      client_vf = &paths[0].repl_out_phys->add_vf(
          pktio::mac_for_node(kNoiseClient));
      sink_vf = &rec_phys.add_vf(pktio::mac_for_node(kNoiseSink));
      if (group_on) {
        // The shared out-port has no static forward in group mode, so
        // the noise stream needs its own MAC route to the recorder NIC.
        sw.set_mac_route(pktio::mac_for_node(kNoiseSink), rec_port_in);
      }
    } else {
      // Dedicated experiment NICs: noise flows over its own hardware.
      noise_link_a = std::make_unique<net::Link>(queue);
      net::NicConfig noise_nic_a = env.replayer_nic;
      noise_nic_a.name = "noise-client";
      noise_phys_a = std::make_unique<net::PhysNic>(
          queue, noise_nic_a, root.split(0x4e41), *noise_link_a);
      client_vf = &noise_phys_a->add_vf(pktio::mac_for_node(kNoiseClient));
      noise_stub_b = std::make_unique<net::Link>(queue);
      net::NicConfig noise_nic_b = env.recorder_nic;
      noise_nic_b.name = "noise-sink";
      noise_phys_b = std::make_unique<net::PhysNic>(
          queue, noise_nic_b, root.split(0x4e42), *noise_stub_b);
      sink_vf = &noise_phys_b->add_vf(pktio::mac_for_node(kNoiseSink));
      const std::size_t pa = sw.add_port();
      const std::size_t pb = sw.add_port();
      noise_link_a->connect(sw.ingress(pa));
      sw.set_port_forward(pa, pb);
      sw.egress_link(pb).connect(*noise_phys_b);
      sw.set_mac_route(pktio::mac_for_node(kNoiseSink), pb);
    }
    // The iperf "server": continuously consumes the noise stream so its
    // buffers recycle (an unarmed capture daemon drains and discards).
    noise_server = std::make_unique<trace::CaptureDaemon>(
        queue, *sink_vf, net::PollLoopConfig{}, root.split(0x4e53),
        "noise-server");
    noise = std::make_unique<net::NoiseSource>(
        queue, *client_vf, *noise_pool,
        flow_between(kNoiseClient, kNoiseSink, 5201, 5201), env.noise,
        root.split(0x4e4f49));
  }

  // ---- Fault injection -------------------------------------------------
  // Constructed last (and only when the preset carries a plan) so that
  // fault-free runs never consume root RNG state and stay bit-identical
  // to the pre-fault-layer baselines.
  if (!env.faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(queue, env.faults,
                                                      root.split(0x4641));
    for (int i = 0; i < env.replayers; ++i) {
      ReplayPath& p = paths[static_cast<std::size_t>(i)];
      const std::string idx = std::to_string(i);
      injector->attach_link("link.gen" + idx, *p.gen_to_switch);
      injector->attach_link("link.repl" + idx + "-out",
                            *p.repl_out_to_switch);
      injector->attach_port("nic.repl" + idx + "-in", p.middlebox->in_dev());
      injector->attach_port("nic.repl" + idx + "-out",
                            p.middlebox->out_dev());
      injector->attach_pool("pool.gen" + idx, *p.gen_pool);
      if (p.ctl_pool != nullptr) {
        injector->attach_pool("pool.ctl" + idx, *p.ctl_pool);
      }
      if (group_on) {
        // Group-mode fault points (see fault/chaos.hpp presets): the
        // egress feeding node i's in-port (control loss), and node i's
        // PTP servo (clock degradation).
        injector->attach_link("link.to-repl" + idx,
                              sw.egress_link(p.port_to_repl));
        injector->attach_clock("clock.repl" + idx, ptp, p.ptp_slave);
      }
    }
    injector->attach_link("link.to-recorder", sw.egress_link(rec_port_in));
    if (group_on) {
      injector->attach_link("link.ctl", *ctl_link);
      injector->attach_link("link.to-ctl", sw.egress_link(ctl_port_out));
      injector->attach_pool("pool.ctl", *group_ctl_pool);
    }
  }

  // ---- Observability wiring --------------------------------------------
  // PTP correction history: each servo sync lands in the owning node's
  // clock table (and ring) stamped with that node's believed wall time —
  // the evidence the timeline merger rebases by. The gen/recorder clocks
  // carry no ring, so their slave slots stay unmapped.
  struct SlaveRef {
    std::uint16_t node = 0;
    const sim::NodeClock* clock = nullptr;
  };
  std::vector<SlaveRef> slave_nodes;
  if (flight_log != nullptr) {
    slave_nodes.resize(ptp.slave_count());
    if (ctl_ptp_slave != SIZE_MAX) {
      slave_nodes[ctl_ptp_slave] = SlaveRef{kController, ctl_clock.get()};
    }
    for (int i = 0; i < env.replayers; ++i) {
      const ReplayPath& p = paths[static_cast<std::size_t>(i)];
      slave_nodes[p.ptp_slave] = SlaveRef{repl_node_id(i), p.clock.get()};
    }
    ptp.set_sync_observer([log = flight_log.get(), &slave_nodes](
                              std::size_t slave, Ns now, double offset) {
      if (slave >= slave_nodes.size()) return;
      const SlaveRef& ref = slave_nodes[slave];
      if (ref.node == 0) return;
      log->note_sync(ref.node, ref.clock->system.read(now), offset);
    });
  }

  // Fault attach points are interned up front with the node each one
  // damages, so an activation routes into the owning node's ring and
  // the postmortem can blame the right member.
  if (flight_log != nullptr && injector != nullptr) {
    for (int i = 0; i < env.replayers; ++i) {
      const std::string idx = std::to_string(i);
      const std::uint16_t repl = repl_node_id(i);
      flight_log->intern_point("link.gen" + idx, repl);
      flight_log->intern_point("link.repl" + idx + "-out", repl);
      flight_log->intern_point("nic.repl" + idx + "-in", repl);
      flight_log->intern_point("nic.repl" + idx + "-out", repl);
      flight_log->intern_point("pool.gen" + idx, repl);
      flight_log->intern_point("pool.ctl" + idx, kController);
      flight_log->intern_point("link.to-repl" + idx, repl);
      flight_log->intern_point("clock.repl" + idx, repl);
    }
    flight_log->intern_point("link.to-recorder", kController);
    flight_log->intern_point("link.ctl", kController);
    flight_log->intern_point("link.to-ctl", kController);
    flight_log->intern_point("pool.ctl", kController);
    injector->set_observer([log = flight_log.get()](const std::string& point,
                                                    fault::FaultKind kind,
                                                    Ns now) {
      const int pid = log->find_point(point);
      if (pid < 0) return;
      obs::FlightRecorder* ring =
          log->node(log->point_node(static_cast<std::uint16_t>(pid)));
      if (ring == nullptr) return;
      obs::FlightEvent e;
      e.kind = obs::EventKind::kFaultActive;
      e.t_wall = now;  // true time: the injector holds no node clock
      e.code = static_cast<std::uint16_t>(kind);
      e.b = static_cast<std::uint64_t>(pid);
      ring->record(e);
    });
  }

  // ---- Timeline --------------------------------------------------------
  ptp.start();

  const Ns record_end = sched.record_end;
  const Ns arm_margin = sched.arm_margin;
  const Ns run_spacing = sched.run_spacing;

  if (group_on) {
    group->start();
    group->broadcast_record(milliseconds(1), record_end);
  }
  for (auto& p : paths) {
    if (!group_on) {
      p.controller->start_record(milliseconds(1), p.ctl_flow);
      p.controller->stop_record(record_end, p.ctl_flow);
    }
    if (p.generator != nullptr) p.generator->start();
    if (p.multi_generator != nullptr) p.multi_generator->start();
  }

  // Baseline replay engines (ablations) share the Choir recording but
  // re-transmit it with their own pacing. They run on the replayer node
  // (its clocks, its out-port), driven at the same command times.
  if (config.engine != ReplayEngine::kChoir) {
    for (auto& p : paths) {
      Rng brng = root.split(0x4241);
      switch (config.engine) {
        case ReplayEngine::kSleep:
          p.baseline = std::make_unique<replay::SleepReplayer>(
              queue, *p.clock, *p.repl_out_vf, p.middlebox->recording(),
              replay::SleepReplayer::Config{}, brng);
          break;
        case ReplayEngine::kBusyWait:
          p.baseline = std::make_unique<replay::BusyWaitReplayer>(
              queue, *p.clock, *p.repl_out_vf, p.middlebox->recording(),
              replay::BusyWaitReplayer::Config{}, brng);
          break;
        case ReplayEngine::kGapFill: {
          replay::GapFillReplayer::Config gf;
          gf.line_rate = env.replayer_nic.line_rate;
          p.gapfill = std::make_unique<replay::GapFillReplayer>(
              queue, *p.clock, *p.repl_out_vf, p.middlebox->recording(), gf);
          break;
        }
        case ReplayEngine::kChoir:
          break;
      }
    }
  }

  // Run names are used twice (capture labels, tracer spans); build them
  // once instead of re-concatenating inside the arm/trace loops.
  std::vector<std::string> run_names;
  run_names.reserve(static_cast<std::size_t>(config.runs));
  for (int r = 0; r < config.runs; ++r) {
    run_names.push_back("run-" + std::to_string(r));
  }

  std::vector<trace::Capture> captures(static_cast<std::size_t>(config.runs));
  const Ns replay_base = sched.replay_base;
  for (int r = 0; r < config.runs; ++r) {
    const Ns wall_start = replay_base + r * run_spacing;
    captures[static_cast<std::size_t>(r)].set_name(
        run_names[static_cast<std::size_t>(r)]);
    daemon.arm(wall_start - arm_margin,
               wall_start + trial_duration + arm_margin,
               &captures[static_cast<std::size_t>(r)]);
    if (group_on) {
      // One barrier-started group round per run: the prepare fence goes
      // out well before the readiness deadline (>= 10 ms of beacon time
      // at any arm margin), the barrier issues the synchronized start at
      // the same dispatch lead the legacy controller used, and health
      // checks run until the capture window closes.
      group->schedule_round(r, wall_start - arm_margin - milliseconds(25),
                            wall_start - milliseconds(20), wall_start,
                            wall_start + trial_duration + arm_margin);
      continue;
    }
    for (auto& p : paths) {
      if (config.engine == ReplayEngine::kChoir) {
        p.controller->start_replay(wall_start - milliseconds(20), p.ctl_flow,
                                   wall_start);
        continue;
      }
      // Baselines receive their start command out of band at the same
      // dispatch time the controller would have used.
      ReplayPath* path = &p;
      queue.schedule_at(wall_start - milliseconds(20), [path, wall_start] {
        if (path->baseline != nullptr) {
          path->baseline->schedule_replay(wall_start);
        } else if (path->gapfill != nullptr) {
          path->gapfill->schedule_replay(wall_start);
        }
      });
    }
  }

  const Ns end_of_world =
      replay_base + config.runs * run_spacing + milliseconds(20);
  if (noise != nullptr) noise->run(milliseconds(2), end_of_world);
  phase_prof.reset();
  {
    telemetry::ProfileSpan prof_run("experiment.run");
    queue.run_until(end_of_world);
  }
  phase_prof.emplace("experiment.evaluate");

  if (tracer != nullptr) {
    // Experiment phases on track 0; the boundaries are schedule constants,
    // so emitting them after the run perturbs nothing.
    tracer->span("record-phase", milliseconds(1), record_end, 0);
    for (int r = 0; r < config.runs; ++r) {
      const Ns wall_start = replay_base + r * run_spacing;
      tracer->span(run_names[static_cast<std::size_t>(r)],
                   wall_start - arm_margin,
                   wall_start + trial_duration + arm_margin, 0);
    }
  }

  // ---- Evaluate --------------------------------------------------------
  ExperimentResult result;
  result.trial_duration = trial_duration;
  result.middlebox_stats.reserve(paths.size());
  result.capture_sizes.reserve(captures.size());
  for (const auto& p : paths) {
    result.recorded_packets += p.middlebox->recording().packet_count();
    result.replay_tx_drops += p.repl_out_phys->tx_port().drops();
    result.middlebox_stats.push_back(p.middlebox->stats());
    if (p.controller != nullptr) {
      result.control_retries += p.controller->retries();
      result.control_send_failures += p.controller->send_failures();
      result.control_timeouts += p.controller->timeouts();
    }
    if (p.generator != nullptr) {
      result.generator_alloc_failures += p.generator->alloc_failures();
    }
    if (p.multi_generator != nullptr) {
      result.generator_alloc_failures += p.multi_generator->alloc_failures();
    }
  }
  if (group != nullptr) {
    result.group_stats = group->stats();
    result.group_members = group->members();
    result.control_retries += group->controller().retries();
    result.control_send_failures += group->controller().send_failures();
    result.control_timeouts += group->controller().timeouts();
    // Per-member control accounting: retries and timeouts attributed to
    // the destination each command targeted (choirctl prints these).
    for (auto& m : result.group_members) {
      if (const app::ControlDestStats* d = group->controller().dest(m.id)) {
        m.ctl_sent = d->sent;
        m.ctl_retries = d->retries;
        m.ctl_send_failures = d->send_failures;
        m.ctl_timeouts = d->timeouts;
      }
    }
  }
  if (injector != nullptr) {
    result.fault_stats = injector->stats();
    // Unhook while every component is still alive; the injector object
    // itself (owning the duplicate pool) outlives the topology.
    injector->detach_all();
  }
  result.recorder_rx_drops = rec_phys.rx_drops();
  result.recorder_imissed = rec_vf.imissed();
  result.switch_queue_drops = sw.queue_drops();
  for (const auto& c : captures) result.capture_sizes.push_back(c.size());

  const core::Trial trial_a = rebased_trial(captures[0]);
  // Index run A's ids once; the flat index is immutable after build, so
  // every B..E comparison shares it read-only instead of rebuilding its
  // own per-comparison hash map over the same million-packet reference.
  const core::ReferenceIndex ref_index(trial_a);
  core::ComparisonOptions options;
  options.collect_series = config.collect_series;
  // Each run B..E is compared against run A independently; fan the
  // comparisons across workers, each writing its own index-addressed
  // slot. compare_trials is a pure function of the (immutable) captures,
  // so the result vector is bit-identical at any job count. Degrades to
  // the sequential loop inline when eval_jobs resolves to 1 or the
  // experiment itself already runs on a suite-level pool worker.
  const auto n_cmp = static_cast<std::size_t>(config.runs - 1);
  result.comparisons.resize(n_cmp);
  // Worker threads see no installed profiler (installation is
  // thread-local), so when profiling is on each task gets its own
  // profiler, merged back in submission order after the join. Host-time
  // spans are report-only, so this never affects determinism.
  const bool fan_out = will_fan_out(config.eval_jobs, n_cmp);
  std::vector<telemetry::SpanProfiler> eval_profiles(
      fan_out && profiler != nullptr ? n_cmp : 0);
  parallel_for_indexed(config.eval_jobs, n_cmp, [&](std::size_t i) {
    std::optional<telemetry::ScopedProfiler> task_prof;
    if (!eval_profiles.empty()) task_prof.emplace(&eval_profiles[i]);
    const core::Trial trial_b = rebased_trial(captures[i + 1]);
    core::CompareScratch scratch;
    scratch.shared_ref = &ref_index;
    result.comparisons[i] =
        core::compare_trials(trial_a, trial_b, options, scratch);
  });
  for (const auto& ep : eval_profiles) profiler->merge_from(ep);
  result.mean = mean_metrics(result.comparisons);

  if (flight_log != nullptr) {
    // Per-round kappa lands in the controller ring after evaluation,
    // stamped at the round's scheduled end: the postmortem kappa-gate
    // pass reads these. Recorded unsampled — a few events per run, and
    // gating them away would blind the analyzer.
    if (obs::FlightRecorder* ring = flight_log->node(kController)) {
      for (std::size_t i = 0; i < result.comparisons.size(); ++i) {
        const int run = static_cast<int>(i) + 1;
        obs::FlightEvent e;
        e.kind = obs::EventKind::kKappaRound;
        e.t_wall = sched.round_end(run);
        e.round = run;
        e.f = result.comparisons[i].metrics.kappa;
        e.trace = obs::round_trace_id(run);
        ring->record(e);
      }
    }
  }

  if (flows_on) {
    telemetry::ProfileSpan prof_flows("experiment.flow_eval");
    // Classify run A once (sharded fan-out), then each comparison
    // classifies its own run and matches flows by key. Classification and
    // compare_flows are pure functions of the immutable captures, so the
    // vector is bit-identical at any job count (nested fan-out degrades
    // to inline on pool workers as usual).
    const trace::FlowClassification cls_a = trace::classify_capture_sharded(
        captures[0], flow_shards, config.eval_jobs);
    result.flow_count = cls_a.table.size();
    result.flow_unclassified = daemon.flow_unclassified();
    result.flow_comparisons.resize(n_cmp);
    parallel_for_indexed(config.eval_jobs, n_cmp, [&](std::size_t i) {
      const trace::FlowClassification cls_b = trace::classify_capture_sharded(
          captures[i + 1], flow_shards, 1);
      const core::Trial trial_b = rebased_trial(captures[i + 1]);
      result.flow_comparisons[i] =
          flow::compare_flows(trial_a, cls_a.table, cls_a.per_packet, trial_b,
                              cls_b.table, cls_b.per_packet, /*jobs=*/1);
    });
  }

  if (config.keep_captures) result.captures = std::move(captures);
  phase_prof.reset();

  if (stream_monitor != nullptr) {
    stream_monitor->finalize();
    result.monitor = stream_monitor;
    if (!config.monitor.dir.empty()) {
      std::filesystem::create_directories(config.monitor.dir);
      const std::string dir = config.monitor.dir + "/";
      monitor::write_divergence_jsonl(*stream_monitor,
                                      dir + "divergence.jsonl");
      monitor::write_windows_csv(*stream_monitor, dir + "windows.csv");
    }
  }

  if (profiler != nullptr) {
    result.profile = profiler;
    // Host-time spans ride a dedicated tracer track; only opted-in runs
    // carry them, so default trace.json artifacts stay byte-identical.
    if (tracer != nullptr) profiler->export_to_tracer(*tracer);
    if (!config.telemetry.dir.empty()) {
      std::filesystem::create_directories(config.telemetry.dir);
      profiler->write_csv(config.telemetry.dir + "/profile.csv");
    }
  }

  if (config.telemetry.enabled) {
    sampler->sample_now();  // final snapshot at end_of_world
    if (series != nullptr) {
      series->sample_now();  // close every series at end_of_world
      result.telemetry_series = series;
    }
    result.telemetry_samples = sampler->samples();
    result.telemetry_registry = registry;
    result.telemetry_trace = tracer;
    if (!config.telemetry.dir.empty()) {
      std::filesystem::create_directories(config.telemetry.dir);
      const std::string dir = config.telemetry.dir + "/";
      analysis::write_snapshots_jsonl(result.telemetry_samples,
                                      dir + "counters.jsonl");
      analysis::write_histogram_summaries_csv(*registry,
                                              dir + "histograms.csv");
      analysis::write_chrome_trace(*tracer, dir + "trace.json");
      if (series != nullptr) {
        // Series artifacts: pure functions of the simulated timeline, so
        // byte-identical at any --jobs (the CI cmp gate relies on this).
        analysis::write_series_jsonl(*series, dir + "series.jsonl");
        analysis::write_prometheus_text(*series, dir + "metrics.prom");
      }
    }
  }

  if (flight_log != nullptr) {
    result.flight_log = flight_log;
    if (!config.obs.dir.empty()) {
      std::filesystem::create_directories(config.obs.dir);
      const obs::GroupTimeline timeline = obs::merge_timeline(*flight_log);
      obs::write_group_trace(*flight_log, timeline,
                             config.obs.dir + "/group_trace.json");
      obs::write_events_jsonl(*flight_log, timeline,
                              config.obs.dir + "/events.jsonl");
    }
  }
  return result;
}

}  // namespace choir::testbed
