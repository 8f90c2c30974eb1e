// Discrete-event core: a deterministic time-ordered event queue.
//
// Ties in time are broken by insertion sequence number, so two events
// scheduled for the same nanosecond always fire in the order they were
// scheduled. This determinism is load-bearing: every experiment in the
// repo is reproducible bit-for-bit from its seed.
//
// The queue is a calendar: a wheel of kHorizon one-nanosecond slots,
// each a FIFO list of event records, plus a binary heap for events due
// kHorizon ns or more from now. Every wheel event lies in
// [now, now + kHorizon), so one slot holds one time, and appending in
// scheduling order is appending in sequence order. Heap events migrate
// into their slots as soon as now() comes within kHorizon of them,
// before any callback at the new now() runs, so a migrated event always
// precedes the events scheduled straight into its slot, which are
// younger. A slot therefore fires in exact (time, sequence) order with
// no comparison (docs/SIMULATION.md §Determinism).
//
// Events are trivially copyable records. A callable of at most
// kInlineBytes that is trivially copyable (every per-packet capture: a
// few pointers and a timestamp) is constructed in the record itself, so
// scheduling and firing it never allocates. Any other callable is boxed
// on the heap once and freed when it fires, when it throws, or when the
// queue is destroyed with it still pending.
//
// Every event carries the Component that scheduled it, and the queue
// counts fired events per component (the event ledger).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/units.hpp"

namespace choir::sim {

/// Who scheduled an event: the ledger's key. Each id is named once, in
/// kComponentNames below.
enum class Component : std::uint8_t {
  kExternal,      ///< untagged callers: tests, harnesses, examples
  kGenerator,     ///< traffic generators' emit ticks
  kTxPort,        ///< TxPort serialization completion
  kLink,          ///< link delivery to the far end
  kSwitch,        ///< switch forwarding to an egress port
  kNicTx,         ///< NIC DMA pulls and paced submits
  kNicRx,         ///< NIC RX release to a VF ring
  kRxPipeline,    ///< RX staging release and stall-and-drain
  kPollLoop,      ///< PMD poll-loop iterations
  kRecorder,      ///< capture arm and disarm
  kMiddlebox,     ///< Choir replay pacing and group beacons
  kControl,       ///< control-channel sends and retries
  kGroup,         ///< replay-group rounds and health checks
  kReplayEngine,  ///< baseline replay engines and their dispatch
  kNoise,         ///< background noise bursts and rate walk
  kPtp,           ///< PTP servo syncs
  kSampler,       ///< telemetry snapshot and series ticks
  kCount,
};

inline constexpr std::size_t kComponentCount =
    static_cast<std::size_t>(Component::kCount);

/// Ledger names, indexed by Component (BENCH counters `events.<name>`).
inline constexpr std::array<std::string_view, kComponentCount>
    kComponentNames = {
        "external", "generator", "tx_port", "link", "switch", "nic_tx",
        "nic_rx", "rx_pipeline", "poll_loop", "recorder", "middlebox",
        "control", "group", "replay_engine", "noise", "ptp", "sampler"};

/// Fired events per component.
using EventLedger = std::array<std::uint64_t, kComponentCount>;

class EventQueue {
 public:
  /// Callable bytes an event record stores inline.
  static constexpr std::size_t kInlineBytes = 32;
  /// Wheel slots, one nanosecond each: events due less than kHorizon ns
  /// from now() go straight into their slot, later ones into the
  /// overflow heap.
  static constexpr Ns kHorizon = 4096;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Frees the boxed callables of events still pending.
  ~EventQueue();

  /// Schedule `fn` to run at absolute simulated time `at` (>= now()),
  /// charged to `component` in the ledger.
  template <class F>
  void schedule_at(Ns at, Component component, F&& fn) {
    CHOIR_EXPECT(at >= now_, "cannot schedule an event in the past");
    using Fn = std::decay_t<F>;
    Record r{at, next_seq_++ << 8 | static_cast<std::uint8_t>(component),
             nullptr, nullptr, {}};
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= 8 &&
                  std::is_trivially_copyable_v<Fn>) {
      ::new (static_cast<void*>(r.storage)) Fn(std::forward<F>(fn));
      r.invoke = [](void* s) { (*std::launder(static_cast<Fn*>(s)))(); };
      push(r);
    } else {
      auto box = std::make_unique<Fn>(std::forward<F>(fn));
      ::new (static_cast<void*>(r.storage)) Fn*(box.get());
      r.invoke = [](void* s) {
        const std::unique_ptr<Fn> owned(*std::launder(static_cast<Fn**>(s)));
        (*owned)();
      };
      r.drop = [](void* s) { delete *std::launder(static_cast<Fn**>(s)); };
      push(r);
      box.release();
    }
  }

  /// Untagged form, charged to Component::kExternal.
  template <class F>
  void schedule_at(Ns at, F&& fn) {
    schedule_at(at, Component::kExternal, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` ns from now.
  template <class F>
  void schedule_in(Ns delay, Component component, F&& fn) {
    schedule_at(now_ + delay, component, std::forward<F>(fn));
  }

  template <class F>
  void schedule_in(Ns delay, F&& fn) {
    schedule_at(now_ + delay, Component::kExternal, std::forward<F>(fn));
  }

  /// Run events until the queue drains or `until` (inclusive) is reached.
  /// Events scheduled during execution are processed if in range.
  void run_until(Ns until);

  /// Run events until the queue is empty.
  void run();

  Ns now() const { return now_; }
  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return wheel_size_ + overflow_.size(); }
  /// Fired events per component; they sum to events_fired().
  const EventLedger& ledger() const { return fired_; }
  std::uint64_t events_fired() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : fired_) total += n;
    return total;
  }

 private:
  /// One pending event, one cache line. Trivially copyable: slab and
  /// heap moves are plain copies, and firing copies the record out
  /// before the callable runs, so the callable may schedule (and grow
  /// the slab).
  struct Record {
    Ns at;
    /// Insertion sequence << 8 | component. Sequences are unique, so
    /// ordering by `order` is ordering by sequence; the low byte is the
    /// ledger tag.
    std::uint64_t order;
    void (*invoke)(void* storage);  ///< runs the callable (and frees a box)
    void (*drop)(void* storage);    ///< frees a box unfired; null inline
    alignas(8) unsigned char storage[kInlineBytes];
  };
  static_assert(std::is_trivially_copyable_v<Record> && sizeof(Record) == 64);

  static constexpr std::size_t kSlots = static_cast<std::size_t>(kHorizon);
  static constexpr std::size_t kWords = kSlots / 64;
  static_assert(std::has_single_bit(kSlots) && kWords <= 64,
                "the slot bitmap's summary is one 64-bit word");
  static constexpr std::uint32_t kNil = 0xffffffffu;

  static std::size_t slot_of(Ns at) {
    return static_cast<std::size_t>(at) & (kSlots - 1);
  }

  /// Into its wheel slot when due within the horizon, else the heap.
  void push(const Record& r);
  /// Append to the tail of the record's slot.
  void append(const Record& r);
  /// Move the heap's events due within the horizon into their slots,
  /// in (at, order) order.
  void migrate();
  /// Time of the earliest pending event; the queue must be non-empty.
  Ns next_at() const;
  /// Advance now() to `at`, the earliest pending time, and fire the
  /// first event there.
  void fire_next(Ns at);

  /// Slab of wheel records; next_[i] links record i to the next one in
  /// its slot, or to the next free record.
  std::vector<Record> slab_;
  std::vector<std::uint32_t> next_;
  std::uint32_t free_ = kNil;
  std::array<std::uint32_t, kSlots> head_{};  ///< valid where the bit is set
  std::array<std::uint32_t, kSlots> tail_{};
  std::array<std::uint64_t, kWords> bits_{};  ///< non-empty slots
  std::uint64_t summary_ = 0;                 ///< non-zero words of bits_
  std::size_t wheel_size_ = 0;
  std::vector<Record> overflow_;  ///< binary min-heap on (at, order)
  Ns now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventLedger fired_{};
};

}  // namespace choir::sim
