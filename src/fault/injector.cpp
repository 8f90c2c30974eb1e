#include "fault/injector.hpp"

#include <algorithm>

namespace choir::fault {

namespace {

/// FNV-1a over the point name: stable across platforms and runs, so a
/// point's RNG stream depends only on (seed, name).
std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

// --- Injection points -------------------------------------------------

struct FaultInjector::LinkPoint : net::LinkFaultHook {
  FaultInjector* parent;
  net::Link* link;
  std::string name;
  std::vector<const FaultEvent*> events;
  std::vector<bool> notified;  ///< first-hit observer latch, per event
  Rng rng;

  LinkPoint(FaultInjector* p, net::Link* l, std::string n,
            std::vector<const FaultEvent*> ev, Rng r)
      : parent(p), link(l), name(std::move(n)), events(std::move(ev)),
        notified(events.size(), false), rng(r) {}

  bool on_transmit(net::Link& via, pktio::Mbuf* pkt, Ns wire_departure,
                   Ns& extra_delay) override {
    FaultStats& s = parent->stats_;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent* e = events[i];
      if (!e->active_at(wire_departure)) continue;
      switch (e->kind) {
        case FaultKind::kLinkDown:
          ++s.link_down_drops;
          parent->notify_activation(name, notified, i, e->kind,
                                    wire_departure);
          return false;
        case FaultKind::kLinkDrop:
          if (rng.chance(e->probability)) {
            ++s.frames_dropped;
            parent->notify_activation(name, notified, i, e->kind,
                                      wire_departure);
            return false;
          }
          break;
        case FaultKind::kLinkCorrupt:
          if (!pkt->frame.invalid_fcs && rng.chance(e->probability)) {
            pkt->frame.invalid_fcs = true;
            ++s.frames_corrupted;
            parent->notify_activation(name, notified, i, e->kind,
                                      wire_departure);
          }
          break;
        case FaultKind::kLinkDuplicate:
          if (rng.chance(e->probability)) {
            parent->notify_activation(name, notified, i, e->kind,
                                      wire_departure);
            pktio::Mbuf* clone = parent->dup_pool_.alloc();
            if (clone == nullptr) {
              ++s.duplicate_pool_dry;
            } else {
              clone->frame = pkt->frame;
              clone->port = pkt->port;
              ++s.frames_duplicated;
              via.deliver_at(clone, wire_departure +
                                        via.config().propagation +
                                        std::max<Ns>(1, e->delay));
            }
          }
          break;
        case FaultKind::kLinkReorder:
          if (rng.chance(e->probability)) {
            extra_delay += e->delay;
            ++s.frames_reordered;
            parent->notify_activation(name, notified, i, e->kind,
                                      wire_departure);
          }
          break;
        default:
          break;  // non-link kinds never bind to a link point
      }
    }
    return true;
  }
};

struct FaultInjector::PortPoint : pktio::PortFaultHook {
  FaultInjector* parent;
  pktio::EthDev* dev;
  std::string name;
  std::vector<const FaultEvent*> events;
  std::vector<bool> notified;  ///< first-hit observer latch, per event

  PortPoint(FaultInjector* p, pktio::EthDev* d, std::string n,
            std::vector<const FaultEvent*> ev)
      : parent(p), dev(d), name(std::move(n)), events(std::move(ev)),
        notified(events.size(), false) {}

  std::uint16_t clamp(std::uint16_t n, bool rx) {
    const Ns now = parent->queue_.now();
    FaultStats& s = parent->stats_;
    std::uint16_t allowed = n;
    std::size_t truncated_by = SIZE_MAX;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent* e = events[i];
      if (!e->active_at(now)) continue;
      if (e->kind == (rx ? FaultKind::kNicRxStall : FaultKind::kNicTxStall)) {
        if (rx) {
          ++s.rx_stalled_polls;
        } else {
          ++s.tx_stalled_bursts;
        }
        parent->notify_activation(name, notified, i, e->kind, now);
        return 0;
      }
      if (e->kind == FaultKind::kNicBurstTruncate && e->burst_cap < allowed) {
        allowed = e->burst_cap;
        truncated_by = i;
      }
    }
    if (allowed < n) {
      ++s.bursts_truncated;
      parent->notify_activation(name, notified, truncated_by,
                                events[truncated_by]->kind, now);
    }
    return allowed;
  }

  std::uint16_t clamp_rx(std::uint16_t n) override { return clamp(n, true); }
  std::uint16_t clamp_tx(std::uint16_t n) override { return clamp(n, false); }
};

struct FaultInjector::PoolPoint : pktio::MempoolFaultHook {
  FaultInjector* parent;
  pktio::Mempool* pool;
  std::string name;
  std::vector<const FaultEvent*> events;
  std::vector<bool> notified;  ///< first-hit observer latch, per event
  Rng rng;

  PoolPoint(FaultInjector* p, pktio::Mempool* pl, std::string n,
            std::vector<const FaultEvent*> ev, Rng r)
      : parent(p), pool(pl), name(std::move(n)), events(std::move(ev)),
        notified(events.size(), false), rng(r) {}

  bool deny_alloc() override {
    const Ns now = parent->queue_.now();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent* e = events[i];
      if (e->kind != FaultKind::kMemPressure || !e->active_at(now)) continue;
      // p = 1 (the default) is exact exhaustion and burns no RNG draw.
      if (e->probability >= 1.0 || rng.chance(e->probability)) {
        ++parent->stats_.allocs_denied;
        parent->notify_activation(name, notified, i, e->kind, now);
        return true;
      }
    }
    return false;
  }
};

struct FaultInjector::ClockPoint final : sim::PtpFaultHook {
  FaultInjector* parent;
  sim::PtpService* ptp;
  std::size_t slave;
  std::string name;
  std::vector<const FaultEvent*> events;

  ClockPoint(FaultInjector* p, sim::PtpService* svc, std::size_t s,
             std::string n, std::vector<const FaultEvent*> ev)
      : parent(p), ptp(svc), slave(s), name(std::move(n)),
        events(std::move(ev)), notified(events.size(), false) {}

  std::vector<bool> notified;  ///< first-hit observer latch, per event

  double sigma_scale(Ns now) override {
    double scale = 1.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent* e = events[i];
      if (e->kind != FaultKind::kClockDegrade || !e->active_at(now)) continue;
      scale *= e->factor;
      parent->notify_activation(name, notified, i, e->kind, now);
    }
    if (scale != 1.0) {
      ++parent->stats_.clock_degrades;
    }
    return scale;
  }
};

// --- FaultInjector ----------------------------------------------------

FaultInjector::FaultInjector(sim::EventQueue& queue, FaultPlan plan, Rng rng)
    : queue_(queue),
      plan_(std::move(plan)),
      seed_(rng.split(0x4641554cULL).next_u64()),
      dup_pool_(kDuplicatePoolPkts) {
  plan_.validate();
  exposure_.counter("fault.link_down_drops", stats_.link_down_drops);
  exposure_.counter("fault.frames_dropped", stats_.frames_dropped);
  exposure_.counter("fault.frames_corrupted", stats_.frames_corrupted);
  exposure_.counter("fault.frames_duplicated", stats_.frames_duplicated);
  exposure_.counter("fault.frames_reordered", stats_.frames_reordered);
  exposure_.counter("fault.rx_stalled_polls", stats_.rx_stalled_polls);
  exposure_.counter("fault.tx_stalled_bursts", stats_.tx_stalled_bursts);
  exposure_.counter("fault.bursts_truncated", stats_.bursts_truncated);
  exposure_.counter("fault.allocs_denied", stats_.allocs_denied);
  exposure_.counter("fault.clock_degrades", stats_.clock_degrades);
}

FaultInjector::~FaultInjector() { detach_all(); }

std::vector<const FaultEvent*> FaultInjector::events_for(
    FaultLayer layer, const std::string& name) const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& e : plan_.events()) {
    if (layer_of(e.kind) == layer && e.matches(name)) out.push_back(&e);
  }
  return out;
}

Rng FaultInjector::point_rng(const std::string& name) const {
  return Rng(seed_).split(name_hash(name));
}

void FaultInjector::notify_activation(const std::string& point,
                                      std::vector<bool>& notified,
                                      std::size_t i, FaultKind kind, Ns now) {
  if (i >= notified.size() || notified[i]) return;
  notified[i] = true;
  if (observer_) observer_(point, kind, now);
}

void FaultInjector::attach_link(const std::string& name, net::Link& link) {
  auto events = events_for(FaultLayer::kLink, name);
  if (events.empty()) return;
  links_.push_back(std::make_unique<LinkPoint>(
      this, &link, name, std::move(events), point_rng(name)));
  link.set_fault(links_.back().get());
}

void FaultInjector::attach_port(const std::string& name, pktio::EthDev& dev) {
  auto events = events_for(FaultLayer::kNic, name);
  if (events.empty()) return;
  ports_.push_back(
      std::make_unique<PortPoint>(this, &dev, name, std::move(events)));
  dev.set_fault(ports_.back().get());
}

void FaultInjector::attach_pool(const std::string& name,
                                pktio::Mempool& pool) {
  auto events = events_for(FaultLayer::kMempool, name);
  if (events.empty()) return;
  pools_.push_back(std::make_unique<PoolPoint>(
      this, &pool, name, std::move(events), point_rng(name)));
  pool.set_fault(pools_.back().get());
}

void FaultInjector::attach_clock(const std::string& name,
                                 sim::PtpService& ptp, std::size_t slave) {
  auto events = events_for(FaultLayer::kClock, name);
  if (events.empty()) return;
  clocks_.push_back(std::make_unique<ClockPoint>(this, &ptp, slave, name,
                                                 std::move(events)));
  ptp.set_fault(slave, clocks_.back().get());
}

void FaultInjector::detach_all() {
  for (auto& p : links_) p->link->set_fault(nullptr);
  for (auto& p : ports_) p->dev->set_fault(nullptr);
  for (auto& p : pools_) p->pool->set_fault(nullptr);
  for (auto& p : clocks_) p->ptp->set_fault(p->slave, nullptr);
  links_.clear();
  ports_.clear();
  pools_.clear();
  clocks_.clear();
}

std::size_t FaultInjector::attached_points() const {
  return links_.size() + ports_.size() + pools_.size() + clocks_.size();
}

}  // namespace choir::fault
