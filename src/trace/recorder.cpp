#include "trace/recorder.hpp"

#include "common/json.hpp"
#include "flow/flow_shard.hpp"
#include "trace/flow_classify.hpp"

namespace choir::trace {

void CaptureDaemon::arm(Ns from, Ns until, Capture* out) {
  queue_.schedule_at(from, sim::Component::kRecorder,
                     [this, out] { active_ = out; });
  const auto disarm = [this, out, from, until] {
    if (active_ == out) active_ = nullptr;
    if (auto* tracer = telemetry::tracer()) {
      tracer->span("capture-window", from, until, tm_track_,
                   "{\"capture\":\"" + json::escape(out->name()) +
                       "\"}");
    }
  };
  queue_.schedule_at(until, sim::Component::kRecorder, disarm);
}

bool CaptureDaemon::drain() {
  telemetry::ProfileSpan prof("record.drain");
  pktio::Mbuf* burst[pktio::kMaxBurst];
  bool worked = false;
  std::uint64_t drained = 0;
  for (;;) {
    const std::uint16_t n = dev_.rx_burst(burst, pktio::kMaxBurst);
    if (n == 0) break;
    worked = true;
    drained += n;
    for (std::uint16_t i = 0; i < n; ++i) {
      pktio::Mbuf* m = burst[i];
      if (active_ != nullptr) {
        const CaptureRecord record =
            CaptureRecord::from_frame(m->frame, m->rx_timestamp);
        if (flow_shards_ > 0) {
          flow::FlowKey key;
          if (key_of_record(record, &key)) {
            const std::size_t before = flow_table_.size();
            flow_table_.classify(key, record.wire_len, record.timestamp,
                                 recorded_);
            const int s = flow::shard_of_key(key, flow_shards_);
            const auto su = static_cast<std::size_t>(s);
            tm_flow_packets_[su].add();
            tm_flow_bytes_[su].add(record.wire_len);
            if (flow_table_.size() > before) tm_flow_new_[su].add();
          } else {
            ++flow_unclassified_;
          }
        }
        active_->append(record);
        ++recorded_;
      } else {
        ++discarded_;
      }
      pktio::Mempool::release(m);
    }
    if (n < pktio::kMaxBurst) break;
  }
  // One sample per productive drain: how much work each poll finds is
  // the recorder's keep-up margin (consistently near ring capacity
  // means the poll cadence, not the copy path, is the limit).
  if (worked) tm_drain_batch_pkts_.record(drained);
  return worked;
}

}  // namespace choir::trace
