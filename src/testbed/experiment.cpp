#include "testbed/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <variant>

#include "analysis/export.hpp"
#include "choir/controller.hpp"
#include "choir/middlebox.hpp"
#include "common/expect.hpp"
#include "common/write_file.hpp"
#include "core/compare_scratch.hpp"
#include "fault/injector.hpp"
#include "gen/generator.hpp"
#include "gen/multi_flow.hpp"
#include "monitor/divergence.hpp"
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
#include "telemetry/telemetry.hpp"
#include "trace/flow_classify.hpp"
#include "trace/recorder.hpp"

namespace choir::testbed {

namespace {

struct EngineName {
  ReplayEngine engine;
  const char* tag;
};

constexpr EngineName kEngineNames[] = {
    {ReplayEngine::kChoir, "choir"},
    {ReplayEngine::kSleep, "sleep"},
    {ReplayEngine::kBusyWait, "busywait"},
    {ReplayEngine::kGapFill, "gapfill"},
};

}  // namespace

const char* engine_tag(ReplayEngine engine) {
  for (const auto& e : kEngineNames) {
    if (e.engine == engine) return e.tag;
  }
  return "?";
}

std::optional<ReplayEngine> parse_engine(std::string_view tag) {
  for (const auto& e : kEngineNames) {
    if (tag == e.tag) return e.engine;
  }
  return std::nullopt;
}

namespace {

/// Events each node's flight ring holds before overwriting the oldest.
constexpr std::size_t kFlightRingEvents = 4096;

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

/// A node clock with a random TSC frequency error and system-clock
/// drift (two draws from `rng`, in that order).
sim::NodeClock make_clock(Rng& rng) {
  return sim::NodeClock{sim::TscClock(2.5, rng.uniform(-5, 5)),
                        sim::SystemClock(0, rng.uniform(-0.5, 0.5))};
}

/// A physical NIC and the cable leaving its TX side (to the switch, or
/// an unused stub on receive-only ports). The NIC name only labels
/// telemetry; it carries no timing information.
struct NicPort {
  std::unique_ptr<net::Link> link;
  std::unique_ptr<net::PhysNic> nic;
};

NicPort make_port(sim::EventQueue& queue, net::NicConfig config,
                  std::string name, Rng rng) {
  NicPort port;
  port.link = std::make_unique<net::Link>(queue);
  config.name = std::move(name);
  port.nic = std::make_unique<net::PhysNic>(queue, config, rng, *port.link);
  return port;
}

/// One replay path: generator port -> middlebox -> (switch) -> recorder.
struct ReplayPath {
  NicPort gen;  ///< generator -> switch
  /// Controller -> replayer control flow; computed once at path setup
  /// instead of re-deriving the MAC/IP tuple per run per command.
  pktio::FlowAddress ctl_flow;
  NicPort repl_in;   ///< switch -> replayer in-port
  NicPort repl_out;  ///< replayer out-port -> switch
  net::Vf* repl_out_vf = nullptr;
  /// This node's index in the PTP sync group (group barriers sample it).
  std::size_t ptp_slave = SIZE_MAX;

  std::unique_ptr<sim::NodeClock> clock;
  // Pools are declared before the middlebox so they are destroyed after
  // it: the middlebox's recording holds references into gen_pool.
  std::unique_ptr<pktio::Mempool> gen_pool;
  std::unique_ptr<pktio::Mempool> ctl_pool;
  std::unique_ptr<pktio::Mempool> beacon_pool;
  std::unique_ptr<app::Middlebox> middlebox;
  std::unique_ptr<app::Controller> controller;
  std::unique_ptr<gen::MultiFlowGenerator> generator;
  /// Baseline engine (Section 9 ablations) re-transmitting the Choir
  /// recording; null when the Choir engine replays.
  std::unique_ptr<replay::Replayer> engine;
};

/// PTP slave slot of the topology's servo (a clock fault point).
struct PtpSlave {
  std::size_t index = 0;
};

/// The component a fault point hooks. std::monostate marks a point this
/// mode does not wire: it keeps its row (and so its flight-log point id)
/// but a plan may not target it.
using FaultTarget = std::variant<std::monostate, net::Link*, pktio::EthDev*,
                                 pktio::Mempool*, PtpSlave>;

/// One row of the topology's fault-point list: the name plans target,
/// the node a fault there damages (the postmortem blames it), and the
/// hooked component.
struct FaultPoint {
  std::string name;
  std::uint16_t node = 0;
  FaultTarget target;

  bool wired() const {
    return !std::holds_alternative<std::monostate>(target);
  }
};

FaultTarget wired_if(bool wired, FaultTarget target) {
  return wired ? target : FaultTarget{};
}

/// Installs one fault point's hook on the injector.
struct AttachFault {
  fault::FaultInjector& injector;
  sim::PtpService& ptp;
  const std::string& name;

  void operator()(std::monostate) const {}
  void operator()(net::Link* link) const { injector.attach_link(name, *link); }
  void operator()(pktio::EthDev* dev) const {
    injector.attach_port(name, *dev);
  }
  void operator()(pktio::Mempool* pool) const {
    injector.attach_pool(name, *pool);
  }
  void operator()(PtpSlave slave) const {
    injector.attach_clock(name, ptp, slave.index);
  }
};

/// Flight-log owner of a PTP slave slot; node 0 marks a clock whose node
/// keeps no ring.
struct SlaveRef {
  std::uint16_t node = 0;
  const sim::NodeClock* clock = nullptr;
};

/// PTP correction history: each servo sync lands in the owning node's
/// clock table (and ring) stamped with that node's believed wall time —
/// the evidence the timeline merger rebases by.
struct SyncToFlightLog final : sim::PtpSyncObserver {
  SyncToFlightLog(obs::FlightLog& l, const std::vector<SlaveRef>& s)
      : log(l), slaves(s) {}

  void on_sync(std::size_t slave, Ns now, double offset) override {
    if (slave >= slaves.size()) return;
    const SlaveRef& ref = slaves[slave];
    if (ref.node == 0) return;
    log.note_sync(ref.node, ref.clock->system.read(now), offset);
  }

  obs::FlightLog& log;
  const std::vector<SlaveRef>& slaves;
};

/// Every simulated component of one experiment. Members are destroyed
/// in reverse declaration order, which the comments below rely on.
struct Topology {
  Topology(const ExperimentConfig& c, sim::EventQueue& q)
      : config(c), queue(q) {}

  const ExperimentConfig& config;
  sim::EventQueue& queue;

  sim::NodeClock gen_clock;
  sim::NodeClock rec_clock;
  std::optional<SyncToFlightLog> sync_log;  ///< obs runs only
  std::unique_ptr<sim::PtpService> ptp;
  std::unique_ptr<net::Switch> sw;
  // Declared before the components (constructed after them): duplicated
  // frames live in the injector's private pool, and components may still
  // hold them when they are torn down, so the injector must die last.
  std::unique_ptr<fault::FaultInjector> injector;

  NicPort rec;  ///< recorder NIC (its TX side is an unused stub)
  net::Vf* rec_vf = nullptr;
  std::unique_ptr<trace::CaptureDaemon> daemon;
  std::size_t rec_port_in = 0;  ///< switch egress to the recorder
  int flow_shards = 0;

  // Coordinator node (group mode only).
  std::unique_ptr<sim::NodeClock> ctl_clock;
  NicPort ctl;
  std::size_t ctl_port_out = 0;
  std::unique_ptr<pktio::Mempool> ctl_pool;
  std::unique_ptr<app::GroupCoordinator> group;

  std::vector<ReplayPath> paths;

  // Background noise.
  std::unique_ptr<pktio::Mempool> noise_pool;
  std::unique_ptr<net::NoiseSource> noise;
  NicPort noise_client;  ///< dedicated-NIC noise only
  NicPort noise_sink;
  std::unique_ptr<trace::CaptureDaemon> noise_server;

  std::vector<FaultPoint> fault_points;
  std::vector<SlaveRef> slave_nodes;  ///< by PTP slave index
};

/// Join `clock` to the PTP servo, noting `node` as the owner of its
/// corrections. Returns the slave index.
std::size_t add_ptp_slave(Topology& t, sim::NodeClock& clock,
                          std::uint16_t node, double sigma = -1.0) {
  t.slave_nodes.push_back(SlaveRef{node, &clock});
  return t.ptp->add_slave(&clock.system, sigma);
}

void add_recorder(Topology& t, Rng& root) {
  t.rec = make_port(t.queue, t.config.env.recorder_nic, "recorder",
                    root.split(0x524543));
  t.rec_vf = &t.rec.nic->add_vf(pktio::mac_for_node(kRecorder));
  // In-path flow classification is an observer: daemon behavior on the
  // simulated timeline is identical with shards on or off.
  t.flow_shards = t.config.flow.enabled ? std::max(1, t.config.flow.shards)
                                        : 0;
  t.daemon = std::make_unique<trace::CaptureDaemon>(
      t.queue, *t.rec_vf, net::PollLoopConfig{}, root.split(0x444d),
      "recorder", t.flow_shards);
  t.rec_port_in = t.sw->add_port();
  t.sw->egress_link(t.rec_port_in).connect(*t.rec.nic);
}

/// A dedicated coordinator node with its own clock, NIC, and switch
/// ports. Only group runs build it, so legacy runs consume none of its
/// RNG state (Rng::split consumes parent state) and stay bit-identical
/// to the committed baselines.
void add_coordinator(Topology& t, Rng& root, obs::FlightLog* log) {
  const ExperimentConfig& config = t.config;
  net::Switch& sw = *t.sw;
  t.ctl_clock = std::make_unique<sim::NodeClock>(make_clock(root));
  add_ptp_slave(t, *t.ctl_clock, kController);
  t.ctl = make_port(t.queue, config.env.generator_nic, "ctl",
                    root.split(0x4754));
  net::Vf& ctl_vf = t.ctl.nic->add_vf(pktio::mac_for_node(kController));
  const std::size_t ctl_port_in = sw.add_port();
  t.ctl_port_out = sw.add_port();
  t.ctl.link->connect(sw.ingress(ctl_port_in));
  sw.egress_link(t.ctl_port_out).connect(*t.ctl.nic);
  // Group-mode routing is MAC-based: commands find each replayer's
  // in-port, beacons find the coordinator, replayed/forwarded data
  // finds the recorder. (Static per-port forwards would pin one
  // destination per ingress, which only works for the 2-node wiring.)
  sw.set_mac_route(pktio::mac_for_node(kController), t.ctl_port_out);
  sw.set_mac_route(pktio::mac_for_node(kRecorder), t.rec_port_in);
  t.ctl_pool = std::make_unique<pktio::Mempool>(256, "ctl");
  t.group = std::make_unique<app::GroupCoordinator>(
      t.queue, *t.ctl_clock, ctl_vf, *t.ctl_pool, config.group.config,
      root.split(0x4752), t.ptp.get());
  t.group->controller().set_retry(config.env.control_retry);
  if (log != nullptr) {
    t.group->set_flight_recorder(&log->add_node(kController, "coordinator"));
  }
}

/// The generator of path `i`: its share of the packets, and (with flows
/// on) of the synthetic flows, on the single-flow pacing.
void add_generator(Topology& t, ReplayPath& p, int i, net::Vf& gen_vf) {
  const ExperimentConfig& config = t.config;
  const EnvironmentPreset& env = config.env;
  const std::uint64_t per_stream =
      packets_for_replayer(config.packets, env.replayers, i);
  p.gen_pool = std::make_unique<pktio::Mempool>(per_stream + 8192,
                                                "gen" + std::to_string(i));
  gen::MultiFlowConfig mf;
  mf.base.flow = flow_between(gen_node_id(i), kRecorder);
  mf.base.stream_id = static_cast<std::uint32_t>(i);
  mf.base.frame_bytes = env.frame_bytes;
  mf.base.rate = env.rate / env.replayers;
  mf.base.count = per_stream;
  mf.base.start = milliseconds(10);
  if (config.flow.enabled && config.flow.flows > 1) {
    mf.flows = std::max<std::uint32_t>(
        1, config.flow.flows / static_cast<std::uint32_t>(env.replayers));
  }
  p.generator = std::make_unique<gen::MultiFlowGenerator>(t.queue, gen_vf,
                                                          *p.gen_pool, mf);
}

/// Replay path `i`: generator port -> switch -> replayer in-port, and
/// replayer out-port -> switch -> recorder (merged in dual setups), plus
/// the path's control endpoint and its rows of the fault-point list.
void add_replay_path(Topology& t, int i, double sync_sigma, Rng& root,
                     obs::FlightLog* log) {
  const ExperimentConfig& config = t.config;
  const EnvironmentPreset& env = config.env;
  const bool group_on = config.group.enabled;
  ReplayPath& p = t.paths[static_cast<std::size_t>(i)];
  Rng prng = root.split(0x5041 + static_cast<std::uint64_t>(i));
  const std::string idx = std::to_string(i);
  const std::uint16_t repl_id = repl_node_id(i);
  net::Switch& sw = *t.sw;

  p.clock = std::make_unique<sim::NodeClock>(make_clock(prng));
  p.ptp_slave = add_ptp_slave(t, *p.clock, repl_id, sync_sigma);

  p.gen = make_port(t.queue, env.generator_nic, "gen" + idx, prng.split(1));
  net::Vf& gen_vf = p.gen.nic->add_vf(pktio::mac_for_node(gen_node_id(i)));
  // Legacy wiring: the per-path controller shares the generator NIC.
  net::Vf* ctl_vf =
      group_on ? nullptr
               : &p.gen.nic->add_vf(pktio::mac_for_node(kController));
  const std::size_t port_from_gen = sw.add_port();
  const std::size_t port_to_repl = sw.add_port();
  p.gen.link->connect(sw.ingress(port_from_gen));
  sw.set_port_forward(port_from_gen, port_to_repl);

  p.repl_in = make_port(t.queue, env.replayer_nic, "repl" + idx + "-in",
                        prng.split(2));
  net::Vf& repl_in_vf = p.repl_in.nic->add_vf(pktio::mac_for_node(repl_id),
                                              /*promiscuous=*/true);
  sw.egress_link(port_to_repl).connect(*p.repl_in.nic);

  p.repl_out = make_port(t.queue, env.replayer_nic, "repl" + idx + "-out",
                         prng.split(3));
  p.repl_out_vf = &p.repl_out.nic->add_vf(pktio::mac_for_node(repl_id), true);
  const std::size_t port_from_repl = sw.add_port();
  p.repl_out.link->connect(sw.ingress(port_from_repl));
  if (group_on) {
    // No static forward: the out-port carries both replayed data (to
    // the recorder) and beacons (to the coordinator), split by the MAC
    // routes. Commands reach this replayer's in-port by its MAC.
    sw.set_mac_route(pktio::mac_for_node(repl_id), port_to_repl);
  } else {
    sw.set_port_forward(port_from_repl, t.rec_port_in);
  }

  app::ChoirConfig choir_cfg = env.choir;
  choir_cfg.replayer_id = repl_id;
  choir_cfg.stream_id = static_cast<std::uint32_t>(i);
  p.middlebox = std::make_unique<app::Middlebox>(
      t.queue, *p.clock, repl_in_vf, *p.repl_out_vf, choir_cfg, prng.split(4));
  p.middlebox->start();
  p.ctl_flow = flow_between(kController, repl_id);
  if (log != nullptr) {
    p.middlebox->set_flight_recorder(&log->add_node(repl_id, "repl" + idx));
  }

  if (group_on) {
    // Group member: beacons to the coordinator from a dedicated pool;
    // the coordinator owns the command side of the flow.
    p.beacon_pool = std::make_unique<pktio::Mempool>(64, "beacon" + idx);
    app::Middlebox::GroupMemberOptions member;
    member.beacon_flow = flow_between(repl_id, kController);
    member.beacon_interval = config.group.config.beacon_interval;
    p.middlebox->enable_group(*p.beacon_pool, member);
    t.group->add_member(repl_id, p.ctl_flow, p.ptp_slave);
  } else {
    p.ctl_pool = std::make_unique<pktio::Mempool>(64, "ctl" + idx);
    p.controller = std::make_unique<app::Controller>(t.queue, t.gen_clock,
                                                     *ctl_vf, *p.ctl_pool);
    p.controller->set_retry(env.control_retry);
    if (log != nullptr) {
      // Legacy per-path controllers all act for the controller node;
      // they share its ring (add_node is idempotent).
      p.controller->set_flight_recorder(
          &log->add_node(kController, "controller"));
    }
  }
  add_generator(t, p, i, gen_vf);

  // This path's fault points. Only legacy paths own a control pool;
  // only group members wire the egress feeding their in-port (control
  // loss) and their PTP servo (clock degradation).
  t.fault_points.insert(
      t.fault_points.end(),
      {{"link.gen" + idx, repl_id, p.gen.link.get()},
       {"link.repl" + idx + "-out", repl_id, p.repl_out.link.get()},
       {"nic.repl" + idx + "-in", repl_id, &p.middlebox->in_dev()},
       {"nic.repl" + idx + "-out", repl_id, &p.middlebox->out_dev()},
       {"pool.gen" + idx, repl_id, p.gen_pool.get()},
       {"pool.ctl" + idx, kController, wired_if(!group_on, p.ctl_pool.get())},
       {"link.to-repl" + idx, repl_id,
        wired_if(group_on, &sw.egress_link(port_to_repl))},
       {"clock.repl" + idx, repl_id,
        wired_if(group_on, PtpSlave{p.ptp_slave})}});
}

void add_noise(Topology& t, Rng& root) {
  const EnvironmentPreset& env = t.config.env;
  net::Switch& sw = *t.sw;
  t.noise_pool = std::make_unique<pktio::Mempool>(16384, "noise");
  net::Vf* client_vf = nullptr;
  net::Vf* sink_vf = nullptr;
  if (env.noise_shares_path) {
    // iperf client co-located with the replayer, server with the
    // recorder: both legs ride the experiment's physical NICs.
    client_vf =
        &t.paths[0].repl_out.nic->add_vf(pktio::mac_for_node(kNoiseClient));
    sink_vf = &t.rec.nic->add_vf(pktio::mac_for_node(kNoiseSink));
    if (t.config.group.enabled) {
      // The shared out-port has no static forward in group mode, so
      // the noise stream needs its own MAC route to the recorder NIC.
      sw.set_mac_route(pktio::mac_for_node(kNoiseSink), t.rec_port_in);
    }
  } else {
    // Dedicated experiment NICs: noise flows over its own hardware.
    t.noise_client = make_port(t.queue, env.replayer_nic, "noise-client",
                               root.split(0x4e41));
    client_vf = &t.noise_client.nic->add_vf(pktio::mac_for_node(kNoiseClient));
    t.noise_sink = make_port(t.queue, env.recorder_nic, "noise-sink",
                             root.split(0x4e42));
    sink_vf = &t.noise_sink.nic->add_vf(pktio::mac_for_node(kNoiseSink));
    const std::size_t pa = sw.add_port();
    const std::size_t pb = sw.add_port();
    t.noise_client.link->connect(sw.ingress(pa));
    sw.set_port_forward(pa, pb);
    sw.egress_link(pb).connect(*t.noise_sink.nic);
    sw.set_mac_route(pktio::mac_for_node(kNoiseSink), pb);
  }
  // The iperf "server": continuously consumes the noise stream so its
  // buffers recycle (an unarmed capture daemon drains and discards).
  t.noise_server = std::make_unique<trace::CaptureDaemon>(
      t.queue, *sink_vf, net::PollLoopConfig{}, root.split(0x4e53),
      "noise-server");
  t.noise = std::make_unique<net::NoiseSource>(
      t.queue, *client_vf, *t.noise_pool,
      flow_between(kNoiseClient, kNoiseSink, 5201, 5201), env.noise,
      root.split(0x4e4f49));
}

/// Bind the preset's fault plan to the fault-point list. Built last, and
/// only for a non-empty plan, so fault-free runs never consume root RNG
/// state and stay bit-identical to the pre-fault-layer baselines.
void add_fault_injector(Topology& t, Rng& root) {
  const fault::FaultPlan& plan = t.config.env.faults;
  for (const fault::FaultEvent& e : plan.events()) {
    const auto aimed = [&](const FaultPoint& p) {
      return p.wired() && p.name == e.target;
    };
    if (e.target != "*" && std::none_of(t.fault_points.begin(),
                                        t.fault_points.end(), aimed)) {
      throw Error("fault plan targets '" + e.target +
                  "', which is not a fault point of this topology "
                  "(see docs/FAULTS.md)");
    }
  }
  t.injector =
      std::make_unique<fault::FaultInjector>(t.queue, plan, root.split(0x4641));
  for (const FaultPoint& p : t.fault_points) {
    std::visit(AttachFault{*t.injector, *t.ptp, p.name}, p.target);
  }
}

/// Hook the flight log into the PTP servo and the fault layer.
void wire_flight_log(Topology& t, obs::FlightLog& log) {
  t.sync_log.emplace(log, t.slave_nodes);
  t.ptp->set_sync_observer(&*t.sync_log);
  if (t.injector == nullptr) return;

  // Fault points are interned up front with the node each one damages,
  // so an activation routes into the owning node's ring and the
  // postmortem can blame the right member.
  for (const FaultPoint& p : t.fault_points) log.intern_point(p.name, p.node);
  t.injector->set_observer([&log](const std::string& point,
                                  fault::FaultKind kind, Ns now) {
    const int pid = log.find_point(point);
    if (pid < 0) return;
    obs::FlightRecorder* ring =
        log.node(log.point_node(static_cast<std::uint16_t>(pid)));
    if (ring == nullptr) return;
    obs::FlightEvent e;
    e.kind = obs::EventKind::kFaultActive;
    e.t_wall = now;  // true time: the injector holds no node clock
    e.code = static_cast<std::uint16_t>(kind);
    e.b = static_cast<std::uint64_t>(pid);
    ring->record(e);
  });
}

/// Build the preset's topology in its fixed construction order (the RNG
/// split order and the event tie order both depend on it).
std::unique_ptr<Topology> build_topology(const ExperimentConfig& config,
                                         sim::EventQueue& queue, Rng& root,
                                         obs::FlightLog* log) {
  const EnvironmentPreset& env = config.env;
  const bool group_on = config.group.enabled;
  auto t = std::make_unique<Topology>(config, queue);
  t->gen_clock = make_clock(root);
  t->rec_clock = make_clock(root);
  t->ptp = std::make_unique<sim::PtpService>(queue, env.ptp,
                                             root.split(0x505450));
  // The generator and recorder nodes keep no flight ring.
  add_ptp_slave(*t, t->gen_clock, 0);
  add_ptp_slave(*t, t->rec_clock, 0);
  t->sw = std::make_unique<net::Switch>(queue, env.switch_config,
                                        root.split(0x5357));
  add_recorder(*t, root);
  if (group_on) add_coordinator(*t, root, log);

  const double sync_sigma = replay_schedule(config).sync_sigma_ns;
  t->paths.resize(static_cast<std::size_t>(env.replayers));
  for (int i = 0; i < env.replayers; ++i) {
    add_replay_path(*t, i, sync_sigma, root, log);
  }
  t->fault_points.insert(
      t->fault_points.end(),
      {{"link.to-recorder", kController, &t->sw->egress_link(t->rec_port_in)},
       {"link.ctl", kController, wired_if(group_on, t->ctl.link.get())},
       {"link.to-ctl", kController,
        wired_if(group_on, &t->sw->egress_link(t->ctl_port_out))},
       {"pool.ctl", kController, wired_if(group_on, t->ctl_pool.get())}});

  if (env.with_noise) add_noise(*t, root);
  if (!env.faults.empty()) add_fault_injector(*t, root);
  if (log != nullptr) wire_flight_log(*t, *log);
  return t;
}

// ---- Phases ---------------------------------------------------------------

/// Record phase: PTP, the group's record broadcast or the per-path
/// record commands, and the generators.
void schedule_record(Topology& t, const ReplaySchedule& sched) {
  t.ptp->start();
  if (t.group != nullptr) {
    t.group->start();
    t.group->broadcast_record(milliseconds(1), sched.record_end);
  }
  for (ReplayPath& p : t.paths) {
    if (p.controller != nullptr) {
      p.controller->start_record(milliseconds(1), p.ctl_flow);
      p.controller->stop_record(sched.record_end, p.ctl_flow);
    }
    p.generator->start();
  }
}

/// Baseline replay engines (ablations) share the Choir recording but
/// re-transmit it with their own pacing. They run on the replayer node
/// (its clocks, its out-port).
void add_replay_engines(Topology& t, Rng& root) {
  const ReplayEngine engine = t.config.engine;
  if (engine == ReplayEngine::kChoir) return;
  for (ReplayPath& p : t.paths) {
    Rng brng = root.split(0x4241);
    const app::Recording& recording = p.middlebox->recording();
    switch (engine) {
      case ReplayEngine::kSleep:
        p.engine = std::make_unique<replay::SleepReplayer>(
            t.queue, *p.clock, *p.repl_out_vf, recording,
            replay::SleepReplayer::Config{}, brng);
        break;
      case ReplayEngine::kBusyWait:
        p.engine = std::make_unique<replay::BusyWaitReplayer>(
            t.queue, *p.clock, *p.repl_out_vf, recording,
            replay::BusyWaitReplayer::Config{}, brng);
        break;
      case ReplayEngine::kGapFill: {
        replay::GapFillReplayer::Config gf;
        gf.line_rate = t.config.env.replayer_nic.line_rate;
        p.engine = std::make_unique<replay::GapFillReplayer>(
            t.queue, *p.clock, *p.repl_out_vf, recording, gf);
        break;
      }
      case ReplayEngine::kChoir:
        break;
    }
  }
}

/// The capture name of run `run` ("run-0" is run A).
std::string run_name(int run) { return "run-" + std::to_string(run); }

/// Replay rounds: arm the recorder around each run, then start it with
/// one barrier-started group round or with per-path start commands.
/// Every round records into `capture`: the run loop closes each round
/// (close_round) before the next one arms, so one buffer serves them all.
void schedule_rounds(Topology& t, const ReplaySchedule& sched,
                     trace::Capture& capture) {
  // A run captures the whole trial: reserve it once so the recorder's
  // appends never regrow (and copy) the capture mid-run. Later runs
  // refill this buffer, or a fresh one of the same size when captures
  // are kept.
  capture.set_name(run_name(0));
  capture.reserve(t.config.packets);
  for (int r = 0; r < t.config.runs; ++r) {
    const Ns wall_start = sched.wall_start(r);
    const Ns dispatch_at = wall_start - milliseconds(20);
    t.daemon->arm(wall_start - sched.arm_margin, sched.round_end(r), &capture);
    if (t.group != nullptr) {
      // The prepare fence goes out well before the readiness deadline
      // (>= 10 ms of beacon time at any arm margin), the barrier issues
      // the synchronized start at the same dispatch lead the legacy
      // controller used, and health checks run until the capture window
      // closes.
      const Ns prepare_at = wall_start - sched.arm_margin - milliseconds(25);
      t.group->schedule_round(r, prepare_at, dispatch_at, wall_start,
                              sched.round_end(r));
      continue;
    }
    for (ReplayPath& p : t.paths) {
      if (p.engine == nullptr) {
        p.controller->start_replay(dispatch_at, p.ctl_flow, wall_start);
        continue;
      }
      // Baselines receive their start command out of band at the same
      // dispatch time the controller would have used.
      replay::Replayer* engine = p.engine.get();
      t.queue.schedule_at(dispatch_at, sim::Component::kReplayEngine,
                          [engine, wall_start] {
                            engine->schedule_replay(wall_start);
                          });
    }
  }
}

/// Run A and what is left of each later run once it is compared against
/// A, filled by close_round as each capture window closes. Run A's
/// trial, classification and index serve every comparison; a later
/// run's trial and classification live only through its own round close.
struct ClosedRuns {
  core::Trial trial_a;  ///< rebased to its first packet
  trace::FlowClassification flows_a;  ///< iff flows are on
  core::ReferenceIndex index_a;  ///< run A's ids, indexed once
  // One κ arena serves every comparison. A fresh arena per round close
  // faults its pages in again each time: about 2% of perfbench
  // record_replay's packet rate on a 4-vCPU VM (docs/PERF.md). Keeping
  // it costs group_flows about 2 MB of peak, since it then outlives the
  // per-flow stage.
  core::CompareScratch scratch;
  std::vector<std::size_t> capture_sizes;
  std::vector<core::ComparisonResult> comparisons;  ///< run r at r - 1
  std::vector<flow::FlowSetComparison> flow_comparisons;  ///< iff flows
  std::vector<trace::Capture> captures;  ///< iff keep_captures
};

/// Compare run B against run A: the Section-3 comparison and, with flows
/// on, the per-flow one, matching B's flows to A's by key.
void compare_run(const ExperimentConfig& config, ClosedRuns& closed,
                 const core::Trial& trial_b,
                 const trace::FlowClassification* flows_b) {
  core::ComparisonOptions options;
  options.collect_series = config.collect_series;
  closed.comparisons.push_back(
      core::compare_trials(closed.trial_a, trial_b, options, closed.scratch));
  if (flows_b == nullptr) return;
  const trace::FlowClassification& a = closed.flows_a;
  closed.flow_comparisons.push_back(
      flow::compare_flows(closed.trial_a, a.table, a.per_packet, trial_b,
                          flows_b->table, flows_b->per_packet, /*jobs=*/1));
}

/// Window run `r` against run A in the monitor, with the run's flow ids
/// (if any) mapped into A's id space as the per-flow comparison maps them.
void monitor_run(monitor::StreamMonitor& monitor, const ClosedRuns& closed,
                 int r, const core::Trial& trial, Ns origin,
                 const trace::FlowClassification* flows) {
  flow::FlowRemap remap;
  if (flows != nullptr) {
    remap = flow::remap_flows(closed.flows_a.table, flows->table,
                              flows->per_packet);
  }
  monitor.monitor_run(run_name(r),
                      {.reference = closed.trial_a,
                       .reference_flows = closed.flows_a.per_packet,
                       .trial = trial,
                       .origin = origin,
                       .flows = remap.ids,
                       .flow_count = remap.flow_count});
}

/// Close run `r` once its capture window has: reduce the capture to the
/// run's trial (and flow classification), then hand the buffer on. Run A
/// is kept and indexed; every later run is compared against it here,
/// windowed against it by the monitor, and then dropped. A kept
/// capture moves to the result and the next run records into a fresh
/// reservation; otherwise the next run refills this buffer, capacity and
/// all. Freeing and re-reserving a buffer per run would not lower the
/// peak: the allocator keeps the freed pages resident.
void close_round(const Topology& t, int r, trace::Capture& capture,
                 monitor::StreamMonitor* monitor, ClosedRuns& closed) {
  const ExperimentConfig& config = t.config;
  telemetry::ProfileSpan prof("experiment.evaluate");
  closed.capture_sizes.push_back(capture.size());
  core::Trial trial = rebased_trial(capture);
  // The raw time the trial is rebased from: the monitor's windows report
  // raw sim times.
  const Ns origin = capture.empty() ? 0 : capture[0].timestamp;
  // With flows on, one span covers the run's classification and its
  // comparisons: the per-flow comparison reads the Section-3 one's trial.
  std::optional<telemetry::ProfileSpan> prof_flows;
  trace::FlowClassification flows;
  if (config.flow.enabled) {
    prof_flows.emplace("experiment.flow_eval");
    // The sharded classification does not depend on the job count.
    flows = trace::classify_capture_sharded(capture, t.flow_shards,
                                            config.eval_jobs);
  }
  const bool last = r + 1 == config.runs;
  if (config.keep_captures) closed.captures.push_back(std::move(capture));
  if (last) {
    // Nothing records any more: free the buffer, so that the comparison
    // reuses its pages.
    capture = trace::Capture();
  } else if (config.keep_captures) {
    capture = trace::Capture(run_name(r + 1));
    capture.reserve(config.packets);
  } else {
    capture.clear();
    capture.set_name(run_name(r + 1));
  }
  if (r > 0) {
    const trace::FlowClassification* flows_b =
        config.flow.enabled ? &flows : nullptr;
    compare_run(config, closed, trial, flows_b);
    prof_flows.reset();
    if (monitor != nullptr) {
      monitor_run(*monitor, closed, r, trial, origin, flows_b);
    }
    return;
  }
  closed.trial_a = std::move(trial);
  closed.flows_a = std::move(flows);
  closed.index_a.rebuild(closed.trial_a);
  closed.scratch.shared_ref = &closed.index_a;
}

/// Provenance and adversity counters of the finished simulation.
void collect_counters(Topology& t, ExperimentResult& result) {
  result.middlebox_stats.reserve(t.paths.size());
  for (const ReplayPath& p : t.paths) {
    result.recorded_packets += p.middlebox->recording().packet_count();
    result.replay_tx_drops += p.repl_out.nic->tx_port().drops();
    result.middlebox_stats.push_back(p.middlebox->stats());
    if (p.controller != nullptr) {
      result.control_retries += p.controller->retries();
      result.control_send_failures += p.controller->send_failures();
      result.control_timeouts += p.controller->timeouts();
    }
    result.generator_alloc_failures += p.generator->alloc_failures();
  }
  if (t.group != nullptr) {
    const app::Controller& ctl = t.group->controller();
    result.group_stats = t.group->stats();
    result.group_members = t.group->members();
    result.control_retries += ctl.retries();
    result.control_send_failures += ctl.send_failures();
    result.control_timeouts += ctl.timeouts();
    // Per-member control accounting: retries and timeouts attributed to
    // the destination each command targeted (choirctl prints these).
    for (auto& m : result.group_members) {
      if (const app::ControlDestStats* d = ctl.dest(m.id)) {
        m.ctl_sent = d->sent;
        m.ctl_retries = d->retries;
        m.ctl_send_failures = d->send_failures;
        m.ctl_timeouts = d->timeouts;
      }
    }
  }
  if (t.injector != nullptr) {
    result.fault_stats = t.injector->stats();
    // Unhook while every component is still alive; the injector object
    // itself (owning the duplicate pool) outlives the topology.
    t.injector->detach_all();
  }
  result.events_by_component = t.queue.ledger();
  result.recorder_rx_drops = t.rec.nic->rx_drops();
  result.recorder_imissed = t.rec_vf->imissed();
  result.switch_queue_drops = t.sw->queue_drops();
}

/// Every observer of one run, opened in a fixed order before any
/// component is built so each layer binds its handles at construction.
/// All are strictly observers: a seeded run is bit-identical with any of
/// them on or off, and with one off its hook pointers stay null.
struct Observers {
  explicit Observers(const ExperimentConfig& c) : config(c) {
    if (config.telemetry.enabled || config.telemetry.profile) {
      registry = std::make_shared<telemetry::Registry>();
      tracer = std::make_shared<telemetry::Tracer>();
      telemetry_session.emplace(registry.get(), tracer.get());
      // Host-time spans are nondeterministic, hence their own session.
      if (config.telemetry.profile) {
        profiler = std::make_shared<telemetry::SpanProfiler>();
        profiler_session.emplace(profiler.get());
      }
    }
    if (config.monitor.enabled) {
      // Each later run is windowed against run A at its own round close
      // (close_round).
      monitor::MonitorConfig mcfg;
      mcfg.window_packets = config.monitor.window_packets;
      mcfg.top_k = config.monitor.top_k;
      stream_monitor = std::make_shared<monitor::StreamMonitor>(mcfg);
    }
    if (config.obs.enabled) {
      // One ring per participating node plus the merger's side tables.
      flight_log = std::make_shared<obs::FlightLog>(kFlightRingEvents,
                                                    config.obs.sample_every);
    }
  }

  /// Start the simulated-time sampler: first on the queue, so its ticks
  /// sort ahead of every component event at the same instant.
  void start_sampling(sim::EventQueue& queue) {
    if (registry == nullptr) return;
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

  /// Experiment phases on tracer track 0. The boundaries are schedule
  /// constants, so emitting them after the run perturbs nothing.
  void trace_phases(const ReplaySchedule& sched) {
    if (tracer == nullptr) return;
    tracer->span("record-phase", milliseconds(1), sched.record_end, 0);
    for (int run = 0; run < config.runs; ++run) {
      tracer->span(run_name(run), sched.wall_start(run) - sched.arm_margin,
                   sched.round_end(run), 0);
    }
  }

  /// Per-round kappa in the controller ring, stamped at the round's
  /// scheduled end: the postmortem kappa-gate pass reads these. Recorded
  /// unsampled — a few events per run, and gating them away would blind
  /// the analyzer.
  void record_kappa_rounds(const ReplaySchedule& sched,
                           const ExperimentResult& result) {
    obs::FlightRecorder* ring =
        flight_log != nullptr ? flight_log->node(kController) : nullptr;
    if (ring == nullptr) return;
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

  /// Hand every observer to `result` and write the artifacts.
  void finish(ExperimentResult& result) {
    result.monitor = stream_monitor;
    if (profiler != nullptr) {
      result.profile = profiler;
      // Host-time spans ride a dedicated tracer track; only opted-in runs
      // carry them, so default trace.json artifacts stay byte-identical.
      profiler->export_to_tracer(*tracer);
    }
    if (series != nullptr) {
      series->sample_now();  // close every series at end_of_world
      result.telemetry_series = series;
      result.telemetry_samples = series->snapshots();
      result.telemetry_registry = registry;
      result.telemetry_trace = tracer;
    }
    result.flight_log = flight_log;
    if (!config.artifact_dir.empty()) write_artifacts(result);
  }

  /// Every enabled observer's files, into the run's one directory. All
  /// but profile.csv are pure functions of the simulated timeline, so
  /// byte-identical at any --jobs (the CI cmp gates rely on this).
  void write_artifacts(ExperimentResult& result) const {
    const std::string& dir = config.artifact_dir;
    std::filesystem::create_directories(dir);
    const auto put = [&](const char* name, const std::string& bytes) {
      write_file(dir + "/" + name, bytes);
      result.artifacts.emplace_back(name);
    };
    if (stream_monitor != nullptr) {
      put("divergence.jsonl",
          monitor::render_divergence_jsonl(*stream_monitor));
      put("windows.csv", monitor::render_windows_csv(*stream_monitor));
    }
    if (profiler != nullptr) put("profile.csv", profiler->render_csv());
    if (series != nullptr) {
      put("counters.jsonl",
          analysis::render_snapshots_jsonl(series->snapshots()));
      put("histograms.csv",
          analysis::render_histogram_summaries_csv(*registry));
      put("trace.json", tracer->render_chrome_json());
      put("series.jsonl", analysis::render_series_jsonl(*series));
      put("metrics.prom", analysis::render_prometheus_text(*series));
    }
    if (flight_log != nullptr) {
      const obs::GroupTimeline timeline = obs::merge_timeline(*flight_log);
      put("group_trace.json", obs::render_group_trace(*flight_log, timeline));
      put("events.jsonl", obs::render_events_jsonl(*flight_log, timeline));
    }
  }

  const ExperimentConfig& config;
  std::shared_ptr<telemetry::Registry> registry;
  std::shared_ptr<telemetry::Tracer> tracer;
  std::optional<telemetry::ScopedTelemetry> telemetry_session;
  std::shared_ptr<telemetry::SpanProfiler> profiler;
  std::optional<telemetry::ScopedProfiler> profiler_session;
  std::shared_ptr<monitor::StreamMonitor> stream_monitor;
  std::shared_ptr<obs::FlightLog> flight_log;
  std::shared_ptr<telemetry::SeriesSampler> series;
};

/// Evaluate phase: counters, the closed runs' comparisons and their
/// mean, and per-round kappa for the flight log.
ExperimentResult evaluate(Topology& t, ClosedRuns& closed,
                          Observers& observers, const ReplaySchedule& sched) {
  ExperimentResult result;
  result.trial_duration = sched.trial_duration;
  collect_counters(t, result);
  result.capture_sizes = std::move(closed.capture_sizes);
  result.comparisons = std::move(closed.comparisons);
  result.mean = mean_metrics(result.comparisons);
  result.flow_comparisons = std::move(closed.flow_comparisons);
  if (t.config.flow.enabled) {
    result.flow_count = closed.flows_a.table.size();
    result.flow_unclassified = t.daemon->flow_unclassified();
  }
  observers.record_kappa_rounds(sched, result);
  result.captures = std::move(closed.captures);
  return result;
}

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
  const bool group_on = config.group.enabled;
  CHOIR_EXPECT(config.env.replayers >= 1 && config.env.replayers <= 64,
               "experiments support 1 to 64 replayers");
  CHOIR_EXPECT(group_on || config.env.replayers <= 2,
               "more than 2 replayers requires group mode");
  CHOIR_EXPECT(!group_on || config.engine == ReplayEngine::kChoir,
               "the replay group protocol drives the Choir engine only");
  CHOIR_EXPECT(config.runs >= 2, "need at least two runs to compare");
  CHOIR_EXPECT(config.packets >= 1, "need at least one packet per trial");

  Observers observers(config);
  // Experiment phase spans (no-ops unless a profiler is installed).
  std::optional<telemetry::ProfileSpan> phase;
  phase.emplace("experiment.build");
  sim::EventQueue queue;
  Rng root(config.seed * 0x9e3779b97f4a7c15ULL + 0x43484f4952ULL);
  observers.start_sampling(queue);
  const std::unique_ptr<Topology> topology =
      build_topology(config, queue, root, observers.flight_log.get());

  // Every schedule instant comes from the shared timetable so offline
  // tools (choirctl postmortem) see the exact same rounds.
  const ReplaySchedule sched = replay_schedule(config);
  schedule_record(*topology, sched);
  add_replay_engines(*topology, root);
  trace::Capture capture;
  schedule_rounds(*topology, sched, capture);
  const Ns end_of_world = sched.wall_start(config.runs) + milliseconds(20);
  if (topology->noise != nullptr) {
    topology->noise->run(milliseconds(2), end_of_world);
  }
  phase.reset();
  // One queue segment per run, each closed at its round end: run_until is
  // inclusive, so the segment ends with the run's disarm event and the
  // next run's arm is still ahead.
  ClosedRuns closed;
  for (int r = 0; r < config.runs; ++r) {
    {
      telemetry::ProfileSpan prof_run("experiment.run");
      queue.run_until(sched.round_end(r));
    }
    close_round(*topology, r, capture, observers.stream_monitor.get(),
                closed);
  }
  {
    telemetry::ProfileSpan prof_run("experiment.run");
    queue.run_until(end_of_world);
  }

  phase.emplace("experiment.evaluate");
  observers.trace_phases(sched);
  ExperimentResult result = evaluate(*topology, closed, observers, sched);
  phase.reset();
  observers.finish(result);
  return result;
}

}  // namespace choir::testbed
