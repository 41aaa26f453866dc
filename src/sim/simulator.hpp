// Simulation kernel: the clock, the event heap and the one loop that runs
// events.
//
// Layer contract (sim): everything above the PHY/MAC models runs as
// callbacks scheduled here; time only advances by executing events, so a
// run is deterministic given the scenario seed.  The sim layer exists to
// *produce captures* — sniffer nodes observe the medium and emit the
// trace::CaptureRecord streams that stand in for the paper's RFMon
// sniffers (§4) — while the analysis layer (core) is forbidden from
// reaching back into simulator state.
//
// The kernel is deliberately minimal: schedule at an absolute time (`at`),
// relative (`in`), cancel, and run up to a bound.  Scheduling in the past
// clamps to `now` rather than throwing, because retry/timeout races in the
// MAC model legitimately produce zero-delay reschedules.  Every event
// carries a (time, sequence) key, which makes execution order total and
// deterministic: ties at the same microsecond run in scheduling order, so a
// simulation is reproducible from its seed alone.
//
// Layout matters here — this is the hottest structure in the simulator:
//  * Callables live in a stable slot pool (small-buffer SmallFn, no heap
//    allocation for MAC-sized captures); the heap itself holds 24-byte POD
//    entries, so sift-up/down moves plain words instead of std::function
//    objects with manager thunks.
//  * Cancellation bumps the slot's generation: O(1), allocation-free, and
//    the stale heap entry is recognized by a single array compare when it
//    surfaces.  Slots are recycled through a free list, so heavy
//    cancel/schedule churn runs in bounded memory (no tombstone set to
//    grow).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/small_fn.hpp"
#include "util/time.hpp"

namespace wlan::sim {

/// Total-order key of a scheduled event: (time, sequence).  The sequence
/// number is unique per simulator and never reused, so comparing keys is
/// exactly the execution-order comparison the heap uses.
struct EventKey {
  Microseconds at = Microseconds::never();
  std::uint64_t seq = 0;
  bool operator<(const EventKey& other) const {
    if (at != other.at) return at < other.at;
    return seq < other.seq;
  }
  bool operator==(const EventKey& other) const {
    return at == other.at && seq == other.seq;
  }
};

/// Handle for cancelling a scheduled event.  Default-constructed handles are
/// inert ("no event").
class EventId {
 public:
  EventId() = default;
  [[nodiscard]] bool valid() const { return slot_ != kNone; }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  /// Inline capture budget: a SIFS-response lambda carries a mac::Frame
  /// (32 bytes) plus a pointer; anything larger spills to the heap.
  using Callback = util::SmallFn<void(), 72>;

  [[nodiscard]] Microseconds now() const { return now_; }

  /// Schedules `fn` at absolute time `when`, clamped to now().  `when` must
  /// not be Microseconds::never() — that value is next_key()'s
  /// nothing-pending sentinel (asserted).
  EventId at(Microseconds when, Callback fn) {
    return schedule(when < now_ ? now_ : when, std::move(fn));
  }

  EventId in(Microseconds delay, Callback fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  /// Cancels a previously scheduled event; harmless if already run/cancelled.
  void cancel(EventId id);

  /// True while `id` names a still-pending event (neither run nor
  /// cancelled).  Lets holders of many EventIds prune fired ones instead of
  /// accumulating them (cancel on a fired id is already a no-op).
  [[nodiscard]] bool live(EventId id) const {
    return id.valid() && slots_[id.slot_].gen == id.gen_;
  }

  /// Runs events until none is pending or the clock passes `until`.
  /// Events scheduled exactly at `until` still run.
  void run_until(Microseconds until) {
    run_until_key(until, std::numeric_limits<std::uint64_t>::max());
  }

  /// Runs events strictly *before* the key (until, seq_limit): an event at
  /// time t with sequence s runs iff t < until, or t == until and
  /// s < seq_limit.  The clock then lands exactly on `until`.  This is the
  /// sharded driver's phase primitive: `seq_limit` is the shard's watermark
  /// captured when the next coupling event was scheduled, so the events run
  /// here are exactly those that precede the coupling event in the
  /// single-queue total order.
  void run_until_key(Microseconds until, std::uint64_t seq_limit);

  /// Runs everything (use only with workloads that stop by themselves); the
  /// clock stays on the last event run.  EventKey{} is (never(), 0), above
  /// every schedulable key.
  void run() { run_below(EventKey{}); }

  /// Key of the earliest pending event, dropping cancelled entries at the
  /// heap front; {never(), 0} when nothing is pending.  The sharded Network
  /// driver compares these keys against per-shard watermarks to reproduce
  /// the single-queue execution order.
  [[nodiscard]] EventKey next_key();

  /// Sequence number the *next* schedule will be assigned.  Sampling this
  /// when a coupling (control-lane) event is scheduled yields the watermark
  /// that separates "scheduled before" from "scheduled after" in this
  /// simulator's local order.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Observer invoked after every schedule with the event's final (clamped)
  /// key.  One observer per simulator; pass nullptr to clear.  Raw function
  /// pointer + context, so the hot path stays allocation-free.
  using ScheduleObserver = void (*)(void* ctx, Microseconds at,
                                    std::uint64_t seq);
  void set_schedule_observer(ScheduleObserver fn, void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

  /// Every slot either holds a pending event or waits on the free list.
  [[nodiscard]] std::size_t pending_events() const {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Diagnostics for tests: slots ever allocated (bounded under churn
  /// because cancellation recycles through the free list) and heap entries
  /// still queued (pending + not-yet-surfaced cancelled ones).
  [[nodiscard]] std::size_t slot_pool_size() const { return slots_.size(); }
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

  /// Adds this simulator's work counters to `m`: events scheduled,
  /// executed and cancelled (generation-mismatch no-ops excluded), and the
  /// pending-event depth and slot-pool high-water marks.  Deterministic per
  /// (seed, config).
  void harvest_metrics(obs::Metrics& m) const;

 private:
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
  };

  // (at, seq) is globally unique — seq is never reused — so the event order
  // is total and ANY correct priority queue pops the exact same sequence;
  // the 4-ary layout below is pure implementation choice.
  struct Entry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  EventId schedule(Microseconds at, Callback&& fn);
  /// The one event loop: pops and runs every pending event whose key is
  /// below `bound`, in key order.
  void run_below(EventKey bound);
  void drop_cancelled();

  // 4-ary min-heap: half the depth of a binary heap, and the four children
  // share two cache lines, so pop-heavy DCF timer churn does fewer
  // dependent misses per sift-down.
  void heap_push(const Entry& e);
  void heap_pop();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Microseconds now_{0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  ScheduleObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace wlan::sim
