#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace wlan::sim {

EventId EventQueue::schedule(Microseconds at, Callback fn) {
  // never() doubles as next_time()'s queue-empty sentinel, so an event at
  // never() would never be reached by Simulator::run()'s drain loop.  An
  // empty callback would be a null-pointer call when it surfaces (SmallFn
  // skips std::function's bad_function_call check on the hot path).
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
  const std::uint64_t seq = next_seq_++;
  heap_push(Entry{at, seq, slot, s.gen});
  ++live_;
  ++scheduled_;
  if (live_ > depth_hw_) depth_hw_ = live_;
  if (observer_) observer_(observer_ctx_, at, seq);
  return EventId{slot, s.gen};
}

void EventQueue::heap_push(const Entry& e) const {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i != 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(heap_[i] < heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::heap_pop() const {
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
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::cancel(EventId id) {
  if (!id.valid()) return;
  Slot& s = slots_[id.slot_];
  // Generation mismatch: the event already ran, was cancelled, or its slot
  // was recycled — all no-ops.  Otherwise retire the slot now; the stale
  // heap entry is skipped by the generation compare when it surfaces.
  if (s.gen != id.gen_) return;
  ++s.gen;
  s.fn = nullptr;
  free_slots_.push_back(id.slot_);
  assert(live_ > 0);
  --live_;
  ++cancelled_;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && dead(heap_.front())) heap_pop();
}

Microseconds EventQueue::next_time() const {
  drop_cancelled();
  return heap_.empty() ? Microseconds::never() : heap_.front().at;
}

EventKey EventQueue::next_key() const {
  drop_cancelled();
  if (heap_.empty()) return EventKey{};
  return EventKey{heap_.front().at, heap_.front().seq};
}

Microseconds EventQueue::run_next() {
  drop_cancelled();
  assert(!heap_.empty());
  const Entry top = heap_.front();
  heap_pop();
  Slot& s = slots_[top.slot];
  // Move the callable out and retire the slot before running: the callback
  // may schedule new events (and reuse this very slot).
  Callback fn = std::move(s.fn);
  ++s.gen;
  free_slots_.push_back(top.slot);
  --live_;
  fn();
  return top.at;
}

}  // namespace wlan::sim
