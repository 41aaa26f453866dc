// Discrete-event scheduler: a binary heap of (time, sequence) keyed events
// with O(1) cancellation via slot generations.
//
// The (time, sequence) key makes execution order total and deterministic:
// ties at the same microsecond run in scheduling order, so a simulation is
// reproducible from its seed alone.
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

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "util/small_fn.hpp"
#include "util/time.hpp"

namespace wlan::sim {

/// Total-order key of a scheduled event: (time, sequence).  The sequence
/// number is unique per queue and never reused, so comparing keys is exactly
/// the execution-order comparison the heap uses.
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
  friend class EventQueue;
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  /// Inline capture budget: a SIFS-response lambda carries a mac::Frame
  /// (32 bytes) plus a pointer; anything larger spills to the heap.
  using Callback = util::SmallFn<void(), 72>;

  /// Schedules `fn` at absolute time `at`.  Events at equal times run in
  /// scheduling order (the sequence number breaks ties), which keeps runs
  /// deterministic.  `at` must not be Microseconds::never() — that value is
  /// next_time()'s queue-empty sentinel (asserted).
  EventId schedule(Microseconds at, Callback fn);

  /// Cancels a previously scheduled event; harmless if already run/cancelled.
  void cancel(EventId id);

  /// True while `id` names a still-pending event (neither run nor
  /// cancelled).  Lets holders of many EventIds prune fired ones instead of
  /// accumulating them (cancel on a fired id is already a no-op).
  [[nodiscard]] bool live(EventId id) const {
    return id.valid() && slots_[id.slot_].gen == id.gen_;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; Microseconds::never() when empty.
  [[nodiscard]] Microseconds next_time() const;

  /// Full (time, sequence) key of the earliest live event; {never(), 0}
  /// when empty.  The sharded Network driver compares these keys against
  /// per-shard watermarks to reproduce the single-queue execution order.
  [[nodiscard]] EventKey next_key() const;

  /// Sequence number the *next* schedule() call will be assigned.  Sampling
  /// this when a coupling (control-lane) event is scheduled yields the
  /// watermark that separates "scheduled before" from "scheduled after" in
  /// this queue's local order.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Observer invoked after every successful schedule() with the event's
  /// final (clamped) key.  One observer per queue; pass nullptr to clear.
  /// Raw function pointer + context, so the hot path stays allocation-free.
  using ScheduleObserver = void (*)(void* ctx, Microseconds at,
                                    std::uint64_t seq);
  void set_schedule_observer(ScheduleObserver fn, void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

  /// Pops and runs the earliest event; returns its time.
  /// Precondition: !empty().
  Microseconds run_next();

  /// Diagnostics for tests: slots ever allocated (bounded under churn
  /// because cancellation recycles through the free list) and heap entries
  /// still queued (live + not-yet-surfaced dead ones).
  [[nodiscard]] std::size_t slot_pool_size() const { return slots_.size(); }
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

  // Work counters (zero in a -DWLAN_OBS=OFF build): total schedules, live
  // events actually cancelled (generation-mismatch no-ops excluded), and
  // the live-event depth high-water mark.  Deterministic per (seed,
  // config); harvested into obs::Metrics once per run.
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  [[nodiscard]] std::size_t depth_high_water() const { return depth_hw_; }

 private:
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
  };

  struct Entry {
    Microseconds at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    // (at, seq) is globally unique — seq is never reused — so the event
    // order is total and ANY correct priority queue pops the exact same
    // sequence; the 4-ary layout below is pure implementation choice.
    bool operator<(const Entry& other) const {
      if (at != other.at) return at < other.at;
      return seq < other.seq;
    }
  };

  [[nodiscard]] bool dead(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }
  void drop_cancelled() const;

  // 4-ary min-heap: half the depth of a binary heap, and the four children
  // share two cache lines, so pop-heavy DCF timer churn does fewer
  // dependent misses per sift-down.  Entries are 24-byte PODs.
  void heap_push(const Entry& e) const;
  void heap_pop() const;

  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t depth_hw_ = 0;
  ScheduleObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace wlan::sim
