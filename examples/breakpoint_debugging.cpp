// Breakpoint debugging (the paper's motivating use case, §1/§4): a
// transparent middlebox sits in-situ on a link in rolling-record mode;
// when a packet matching a predicate flies by — here, a "bad request" to
// a particular UDP port — recording freezes, leaving a replayable
// backtrace of the traffic that led up to the event. The bug can then be
// reproduced on demand by replaying the backtrace.
//
// Build & run:  ./build/examples/breakpoint_debugging
#include <cstdio>

#include "choir/middlebox.hpp"
#include "core/metrics.hpp"
#include "gen/multi_flow.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "trace/recorder.hpp"

using namespace choir;

namespace {
constexpr std::uint16_t kSuspectPort = 6666;

net::NicConfig nic_config() {
  net::NicConfig cfg;  // defaults: mild, bare-metal-ish
  return cfg;
}
}  // namespace

int main() {
  sim::EventQueue queue;
  Rng root(2718);

  // Topology: generator -> middlebox -> recorder, as in the paper.
  net::Link gen_link(queue), mb_link(queue), stub_a(queue), stub_b(queue);
  net::PhysNic gen_nic(queue, nic_config(), root.split(1), gen_link);
  net::PhysNic mb_in(queue, nic_config(), root.split(2), stub_a);
  net::PhysNic mb_out(queue, nic_config(), root.split(3), mb_link);
  net::PhysNic rec_nic(queue, nic_config(), root.split(4), stub_b);
  net::Vf& gen_vf = gen_nic.add_vf(pktio::mac_for_node(1));
  net::Vf& in_vf = mb_in.add_vf(pktio::mac_for_node(10), true);
  net::Vf& out_vf = mb_out.add_vf(pktio::mac_for_node(10), true);
  net::Vf& rec_vf = rec_nic.add_vf(pktio::mac_for_node(4), true);
  gen_link.connect(mb_in);
  mb_link.connect(rec_nic);

  sim::NodeClock clock{sim::TscClock(2.5), sim::SystemClock()};
  pktio::Mempool pool(65536);

  // The middlebox idles in rolling-record mode: it always holds the last
  // 2000 packets, no matter how long it runs.
  app::ChoirConfig cfg;
  cfg.rolling_record = true;
  cfg.max_recorded_packets = 2000;
  app::Middlebox mb(queue, clock, in_vf, out_vf, cfg, root.split(5));
  mb.start();
  mb.start_record();
  mb.set_breakpoint([](const pktio::Frame& frame) {
    const auto parsed = pktio::parse_eth_ipv4_udp(frame);
    return parsed.valid && parsed.flow.dst_port == kSuspectPort;
  });

  // Recorder captures whatever the middlebox emits.
  trace::CaptureDaemon daemon(queue, rec_vf, {}, root.split(6));
  trace::Capture live("live"), reproduced("reproduced");

  // Background traffic: a long CBR stream...
  gen::StreamConfig stream;
  stream.flow.src_mac = pktio::mac_for_node(1);
  stream.flow.dst_mac = pktio::mac_for_node(4);
  stream.flow.src_ip = pktio::ip_for_node(1);
  stream.flow.dst_ip = pktio::ip_for_node(4);
  stream.flow.src_port = 7000;
  stream.flow.dst_port = 7001;
  stream.rate = gbps(10);
  stream.count = 20'000;  // ends well before the replays below
  stream.start = milliseconds(1);
  gen::MultiFlowGenerator generator(queue, gen_vf, pool, {stream});
  generator.start();

  // ...and, somewhere in the middle of it, the "bug": one datagram to
  // the suspect port.
  queue.schedule_at(milliseconds(4), [&] {
    pktio::Mbuf* m = pool.alloc();
    pktio::FlowAddress bad = stream.flow;
    bad.dst_port = kSuspectPort;
    m->frame.wire_len = 200;
    m->frame.payload_token = 0xBAD;
    pktio::write_eth_ipv4_udp(m->frame, bad);
    gen_vf.tx_paced(m, queue.now() + 1000);
  });

  queue.run_until(milliseconds(30));
  std::printf("breakpoint hits: %llu; backtrace holds %zu packets "
              "(window capacity %zu)\n",
              static_cast<unsigned long long>(mb.stats().breakpoint_hits),
              mb.recording().packet_count(), cfg.max_recorded_packets);

  // Replay the backtrace twice and check the reproduction is consistent.
  daemon.arm(queue.now(), queue.now() + milliseconds(20), &live);
  mb.schedule_replay(clock.system.read(queue.now()) + milliseconds(2));
  queue.run_until(queue.now() + milliseconds(20));
  daemon.arm(queue.now(), queue.now() + milliseconds(20), &reproduced);
  mb.schedule_replay(clock.system.read(queue.now()) + milliseconds(2));
  queue.run_until(queue.now() + milliseconds(25));

  std::printf("replayed backtrace: %zu and %zu packets captured\n",
              live.size(), reproduced.size());
  const auto cmp = core::compare_trials(live.to_trial(),
                                        reproduced.to_trial());
  std::printf("replay-of-replay consistency: kappa = %.4f "
              "(U=%g O=%g)\n",
              cmp.metrics.kappa, cmp.metrics.uniqueness,
              cmp.metrics.ordering);
  // The triggering packet is the last thing in the backtrace.
  const auto& last = live[live.size() - 1];
  pktio::Frame last_frame;
  last_frame.wire_len = last.wire_len;
  last_frame.header_len = last.header_len;
  last_frame.header = last.header;
  const auto parsed_last = pktio::parse_eth_ipv4_udp(last_frame);
  std::printf("last packet in backtrace -> dst port %u (suspect %u)\n",
              parsed_last.flow.dst_port, kSuspectPort);
  return 0;
}
