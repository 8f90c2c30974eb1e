#include "choir/controller.hpp"

#include "obs/trace_context.hpp"
#include "pktio/headers.hpp"

namespace choir::app {

namespace {

obs::FlightEvent control_event(obs::EventKind kind, std::uint16_t peer,
                               const ControlMessage& msg,
                               std::uint32_t attempt_no) {
  const obs::TraceContext ctx = obs::unpack_trace(msg.trace);
  obs::FlightEvent e{};
  e.kind = kind;
  e.peer = peer;
  e.code = static_cast<std::uint16_t>(msg.op);
  e.a = static_cast<std::int64_t>(attempt_no);
  e.b = msg.seq;
  e.trace = ctx.trace;
  e.span = ctx.span;
  e.round = obs::round_of_trace(ctx.trace);
  return e;
}

}  // namespace

ControlDestStats& Controller::dest_slot(std::uint16_t node) {
  for (auto& d : dests_) {
    if (d.node == node) return d;
  }
  dests_.push_back(ControlDestStats{node, 0, 0, 0, 0});
  return dests_.back();
}

void Controller::send_at(Ns at, const pktio::FlowAddress& flow,
                         const ControlMessage& msg) {
  ControlMessage out = msg;
  if (retry_.max_attempts > 1) {
    out.seq = ++next_seq_;
    out.sequenced = true;
  }
  queue_.schedule_at(at, sim::Component::kControl,
                     [this, flow, out] { attempt(flow, out, 0); });
}

void Controller::attempt(const pktio::FlowAddress& flow,
                         const ControlMessage& msg,
                         std::uint32_t attempt_no) {
  const std::uint16_t peer = pktio::node_for_ip(flow.dst_ip);
  // Schedule the next redundant attempt first, so a local failure below
  // never silences the command: backoff grows geometrically and the
  // schedule is cut off at the per-command timeout.
  if (attempt_no + 1 < retry_.max_attempts) {
    double gap = static_cast<double>(retry_.initial_backoff);
    Ns offset = 0;
    for (std::uint32_t k = 0; k < attempt_no; ++k) {
      offset += static_cast<Ns>(gap);
      gap *= retry_.multiplier;
    }
    const Ns next_offset = offset + static_cast<Ns>(gap);
    if (next_offset <= retry_.timeout) {
      queue_.schedule_in(static_cast<Ns>(gap), sim::Component::kControl,
                         [this, flow, msg, attempt_no] {
                           ++retries_;
                           ++dest_slot(pktio::node_for_ip(flow.dst_ip)).retries;
                           attempt(flow, msg, attempt_no + 1);
                         });
    } else {
      // The backoff window closed with attempts remaining: the command's
      // redundancy budget is exhausted without any confirmation.
      ++timeouts_;
      ++dest_slot(peer).timeouts;
      if (flight_ != nullptr) {
        obs::FlightEvent e =
            control_event(obs::EventKind::kControlTimeout, peer, msg,
                          attempt_no);
        e.t_wall = wall_now();
        flight_->record(e);
      }
    }
  }

  pktio::Mbuf* m = pool_.alloc();
  if (m == nullptr) {
    // Degrade, don't abort: the command may still land via a retry, and
    // the failure is visible to the experiment through the counter.
    ++send_failures_;
    ++dest_slot(peer).send_failures;
    if (flight_ != nullptr) {
      obs::FlightEvent e = control_event(obs::EventKind::kControlSendFail,
                                         peer, msg, attempt_no);
      e.t_wall = wall_now();
      flight_->record(e);
    }
    return;
  }
  encode_control(m->frame, flow, msg);
  pktio::Mbuf* burst[1] = {m};
  if (vf_.backend_tx(burst, 1) != 1) {
    pktio::Mempool::release(m);
    ++send_failures_;
    ++dest_slot(peer).send_failures;
    if (flight_ != nullptr) {
      obs::FlightEvent e = control_event(obs::EventKind::kControlSendFail,
                                         peer, msg, attempt_no);
      e.t_wall = wall_now();
      flight_->record(e);
    }
    return;
  }
  ++sent_;
  ++dest_slot(peer).sent;
  if (flight_ != nullptr) {
    obs::FlightEvent e =
        control_event(obs::EventKind::kControlSend, peer, msg, attempt_no);
    e.t_wall = wall_now();
    flight_->record(e);
  }
}

}  // namespace choir::app
