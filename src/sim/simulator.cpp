#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace wlan::sim {

EventId Simulator::schedule(Microseconds at, Callback&& fn) {
  // never() doubles as next_key()'s nothing-pending sentinel and as run()'s
  // bound, so an event at never() would never run.  An empty callback would
  // be a null-pointer call when it surfaces (SmallFn skips std::function's
  // bad_function_call check on the hot path).
  assert(at != Microseconds::never());
  assert(fn);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const EventKey key{at, next_seq_++};
  heap_push(Entry{key, slot, s.gen});
  if (observer_) observer_(observer_ctx_, key.at, key.seq);
  return EventId{slot, s.gen};
}

void Simulator::cancel(EventId id) {
  if (!id.valid()) return;
  Slot& s = slots_[id.slot_];
  // Generation mismatch: the event already ran, was cancelled, or its slot
  // was recycled — all no-ops.  Otherwise retire the slot now; the stale
  // heap entry is skipped by the generation compare when it surfaces.
  if (s.gen != id.gen_) return;
  ++s.gen;
  s.fn = nullptr;
  free_slots_.push_back(id.slot_);
  ++cancelled_;
}

void Simulator::run_until_key(Microseconds until, std::uint64_t seq_limit) {
  run_below(EventKey{until, seq_limit});
  // Land exactly on the bound so anything scheduled next (by a coupling
  // event, or by the caller) is stamped relative to the right `now`.
  if (now_ < until) now_ = until;
}

void Simulator::run_below(EventKey bound) {
  for (;;) {
    drop_cancelled();
    if (heap_.empty() || !(heap_.front().key < bound)) return;
    const Entry top = heap_.front();
    heap_pop();
    Slot& s = slots_[top.slot];
    // Move the callable out and retire the slot before running: the callback
    // may schedule new events (and reuse this very slot).
    Callback fn = std::move(s.fn);
    ++s.gen;
    free_slots_.push_back(top.slot);
    // Advance the clock *before* dispatching: callbacks must observe their
    // own timestamp through now().
    now_ = top.key.at;
    fn();
    ++executed_;
  }
}

EventKey Simulator::next_key() {
  drop_cancelled();
  return heap_.empty() ? EventKey{} : heap_.front().key;
}

void Simulator::drop_cancelled() {
  while (!heap_.empty() && slots_[heap_.front().slot].gen != heap_.front().gen) {
    heap_pop();
  }
}

void Simulator::heap_push(const Entry& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i != 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(heap_[i].key < heap_[parent].key)) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (heap_[c].key < heap_[best].key) best = c;
    }
    if (!(heap_[best].key < last.key)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Simulator::harvest_metrics(obs::Metrics& m) const {
  using obs::Id;
  // Each schedule takes the next sequence number, so next_seq_ - 1 counts
  // them.  The slot pool grows only when every slot holds a pending event,
  // so its size is also the pending-event depth's high-water mark.
  m.add(Id::kEventsExecuted, executed_);
  m.add(Id::kEventsScheduled, next_seq_ - 1);
  m.add(Id::kEventsCancelled, cancelled_);
  m.note_max(Id::kEventQueueDepthHw, slots_.size());
  m.note_max(Id::kEventQueueSlotPoolHw, slots_.size());
}

}  // namespace wlan::sim
