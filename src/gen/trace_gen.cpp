#include "gen/trace_gen.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace choir::gen {

namespace {
constexpr std::size_t kChunk = 64;  ///< frames prepared per event
}

TraceGenerator::TraceGenerator(sim::EventQueue& queue, net::Vf& vf,
                               pktio::Mempool& pool,
                               const trace::Capture& capture,
                               pktio::FlowAddress flow, Ns start,
                               bool keep_headers)
    : queue_(queue), vf_(vf), pool_(pool), capture_(capture), flow_(flow),
      start_(start), keep_headers_(keep_headers) {
  if (!capture_.empty()) capture_epoch_ = capture_[0].timestamp;
}

Ns TraceGenerator::frame_time(std::size_t index) const {
  return start_ + (capture_[index].timestamp - capture_epoch_);
}

void TraceGenerator::start() {
  if (capture_.empty()) return;
  queue_.schedule_at(std::max<Ns>(queue_.now(), start_ - kNsPerMs),
                     sim::Component::kGenerator, [this] { emit_chunk(); });
}

void TraceGenerator::emit_chunk() {
  const std::size_t limit = std::min(capture_.size(), cursor_ + kChunk);
  for (; cursor_ < limit; ++cursor_) {
    const trace::CaptureRecord& record = capture_[cursor_];
    pktio::Mbuf* m = pool_.alloc();
    if (m == nullptr) {
      ++alloc_failures_;
      continue;
    }
    m->frame.wire_len = record.wire_len;
    m->frame.payload_token = record.payload_token;
    if (keep_headers_ && record.header_len > 0) {
      m->frame.header = record.header;
      m->frame.header_len = record.header_len;
    } else {
      pktio::write_eth_ipv4_udp(m->frame, flow_);
    }
    // Replaying a capture does not re-use its evaluation trailers: the
    // next middlebox stamps fresh ones, as in the paper's pipeline.
    vf_.tx_paced(m, frame_time(cursor_));
    ++emitted_;
  }
  if (cursor_ < capture_.size()) {
    const Ns next = frame_time(cursor_) - kNsPerUs;
    queue_.schedule_at(std::max(queue_.now() + 1, next),
                       sim::Component::kGenerator, [this] { emit_chunk(); });
  }
}

}  // namespace choir::gen
