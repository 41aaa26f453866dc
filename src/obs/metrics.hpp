// Deterministic work counters for the simulator's hot structures.
//
// The source paper instruments a live WLAN to explain congestion; this layer
// turns the same lens inward.  Wall-clock profiling on a noisy 1-core
// container is ±30% run-to-run and gprof does not attribute libm time, so
// the reliable measurement channel is *deterministic work counters*: how
// many events dispatched, how many delivery RNG draws, how many full
// frame-success evaluations survived the caches.  Every counter here is a
// pure function of (seed, config) — byte-identical across `--threads N`,
// replay, and host machines — which is what lets perfbench/ compare them
// with `==` instead of a noise threshold.
//
// Contract (the property that makes this layer safe to leave on):
//  * Out-of-band only.  Nothing in this layer draws from a util::Rng,
//    touches a double that feeds simulation output, or reorders any
//    computation.  Figure/CSV/manifest bytes are identical whether the
//    counters are harvested or ignored.
//  * Per-run ownership.  A Metrics object belongs to one run; the exp
//    runner installs it on the worker thread via MetricsScope before the
//    run and harvests it after.  The thread-local current() pointer is the
//    only global state, so concurrent runs on the runner's pool never
//    share a register.
//  * Cheap increments.  Hot structures (the phy::ExactMemo caches, the
//    event kernel sim::Simulator, Channel) keep plain member counters —
//    one untaken-branch-free integer add in the hot path, no TLS lookup —
//    and the sim layer harvests them into current() once per run
//    (Network::harvest_metrics, which calls Simulator::harvest_metrics).
//    The obs::count()/obs::note_max() helpers (one TLS load + null check)
//    are for cool paths: run lifecycle, churn arrivals, teardown.
//
// There is no build without this layer: docs/OBSERVABILITY.md ("Cost")
// measures the counters at under 1% of the plenary workload's wall time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// Expands to its statement; kept because perfbench/driver.cpp still uses it.
#define WLAN_OBS_ONLY(...) __VA_ARGS__

namespace wlan::obs {

/// The counter catalog.  X(enum_name, "dotted.name", kind) — kind decides
/// how per-run values combine into a sweep aggregate: kSum accumulates,
/// kMax keeps the high-water mark.  Names are stable public API (they
/// appear in metrics CSV/JSON files and perfbench/expected.json);
/// add new counters at the end of their section, never rename casually.
#define WLAN_OBS_COUNTERS(X)                                                \
  /* --- sim: event kernel -------------------------------------------- */ \
  X(kEventsExecuted, "sim.events_executed", Kind::kSum)                     \
  X(kEventsScheduled, "sim.events_scheduled", Kind::kSum)                   \
  X(kEventsCancelled, "sim.events_cancelled", Kind::kSum)                   \
  X(kEventQueueDepthHw, "sim.event_queue_depth_hw", Kind::kMax)             \
  X(kEventQueueSlotPoolHw, "sim.event_queue_slot_pool_hw", Kind::kMax)      \
  /* --- sim: channel / reception engine ------------------------------ */ \
  X(kEndOfAirEvents, "sim.end_of_air_events", Kind::kSum)                   \
  X(kAccessGrants, "sim.access_grants", Kind::kSum)                         \
  X(kTransmissions, "sim.transmissions", Kind::kSum)                        \
  X(kCollisions, "sim.collisions", Kind::kSum)                              \
  X(kDeliveryChanceDraws, "sim.delivery_chance_draws", Kind::kSum)          \
  X(kReceptionsScalar, "sim.receptions_scalar", Kind::kSum)                 \
  X(kReceptionsBatched, "sim.receptions_batched", Kind::kSum)               \
  X(kBroadcastPlanHits, "sim.broadcast_plan_hits", Kind::kSum)              \
  X(kBroadcastPlanRebuilds, "sim.broadcast_plan_rebuilds", Kind::kSum)      \
  X(kLinkIdsRecycled, "sim.link_ids_recycled", Kind::kSum)                  \
  /* --- phy: cache telemetry (misses == full libm evaluations) ------- */ \
  X(kFrameSuccessHits, "phy.frame_success_hits", Kind::kSum)                \
  X(kFrameSuccessEvals, "phy.frame_success_evals", Kind::kSum)              \
  X(kFrameSuccessSaturated, "phy.frame_success_saturated", Kind::kSum)      \
  X(kFrameSuccessResizes, "phy.frame_success_resizes", Kind::kSum)          \
  X(kDbmToMwHits, "phy.dbm_to_mw_hits", Kind::kSum)                         \
  X(kDbmToMwEvals, "phy.dbm_to_mw_evals", Kind::kSum)                       \
  X(kMwToDbmHits, "phy.mw_to_dbm_hits", Kind::kSum)                         \
  X(kMwToDbmEvals, "phy.mw_to_dbm_evals", Kind::kSum)                       \
  X(kLinkCacheEndpointsHw, "phy.link_cache_endpoints_hw", Kind::kMax)       \
  X(kLinkCacheIdCapacityHw, "phy.link_cache_id_capacity_hw", Kind::kMax)    \
  X(kLinkCacheStationMutations, "phy.link_cache_station_mutations",         \
    Kind::kSum)                                                             \
  X(kLinkCacheSnifferRegistrations, "phy.link_cache_sniffer_registrations", \
    Kind::kSum)                                                             \
  /* --- util: arena -------------------------------------------------- */ \
  X(kArenaBlocksHw, "util.arena_blocks_hw", Kind::kMax)                     \
  X(kArenaCapacityBytesHw, "util.arena_capacity_bytes_hw", Kind::kMax)      \
  X(kArenaAllocBytesHw, "util.arena_alloc_bytes_hw", Kind::kMax)            \
  X(kArenaResets, "util.arena_resets", Kind::kSum)                          \
  /* --- workload: churn lifecycle ------------------------------------ */ \
  X(kChurnArrivals, "workload.churn_arrivals", Kind::kSum)                  \
  X(kChurnRoams, "workload.churn_roams", Kind::kSum)                        \
  X(kChurnMoves, "workload.churn_moves", Kind::kSum)                        \
  X(kChurnPeakLive, "workload.churn_peak_live", Kind::kMax)                 \
  X(kStationsRemoved, "workload.stations_removed", Kind::kSum)              \
  /* --- trace: sniffer capture pipeline ------------------------------ */ \
  X(kSnifferFramesCaptured, "trace.sniffer_frames_captured", Kind::kSum)    \
  X(kSnifferFramesMissed, "trace.sniffer_frames_missed", Kind::kSum)        \
  /* --- rate: adaptation policy layer -------------------------------- */ \
  X(kRatePlans, "rate.plans", Kind::kSum)                                   \
  X(kRateOutcomes, "rate.outcomes", Kind::kSum)                             \
  X(kRateProbePlans, "rate.probe_plans", Kind::kSum)                        \
  X(kRateWindowRolls, "rate.window_rolls", Kind::kSum)                      \
  X(kRateControllersCreated, "rate.controllers_created", Kind::kSum)        \
  /* --- exp: run bookkeeping ----------------------------------------- */ \
  X(kRuns, "exp.runs", Kind::kSum)                                          \
  X(kTraceRecords, "exp.trace_records", Kind::kSum)

enum class Kind : std::uint8_t { kSum, kMax };

enum class Id : std::uint16_t {
#define WLAN_OBS_X(name, str, kind) name,
  WLAN_OBS_COUNTERS(WLAN_OBS_X)
#undef WLAN_OBS_X
      kCount
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Id::kCount);

/// Stable dotted name of a counter ("sim.events_executed").
const char* name(Id id);
/// Aggregation kind (sum across runs vs high-water max).
Kind kind(Id id);

/// One run's counter register.  Plain array, no locks: a Metrics object is
/// only ever touched by the thread its MetricsScope installed it on.
class Metrics {
 public:
  void add(Id id, std::uint64_t n = 1) {
    v_[static_cast<std::size_t>(id)] += n;
  }
  /// Raises a high-water gauge (no-op when `v` is not a new maximum).
  void note_max(Id id, std::uint64_t v) {
    std::uint64_t& slot = v_[static_cast<std::size_t>(id)];
    if (v > slot) slot = v;
  }
  [[nodiscard]] std::uint64_t value(Id id) const {
    return v_[static_cast<std::size_t>(id)];
  }

  /// Folds another register into this one: kSum counters add, kMax gauges
  /// take the maximum.  Commutative and associative, so merging per-run
  /// snapshots in grid order yields the same aggregate for any thread
  /// count — the property the runner's determinism test pins.
  void merge(const Metrics& other);

  void clear() { v_ = {}; }

 private:
  std::array<std::uint64_t, kNumCounters> v_{};
};

/// The register runs on this thread currently deposit into; nullptr outside
/// any MetricsScope (all helpers then no-op).
Metrics* current();

/// RAII installer: makes `m` the thread's current register for the scope's
/// lifetime, restoring the previous one on exit (scopes nest).
class MetricsScope {
 public:
  explicit MetricsScope(Metrics& m);
  ~MetricsScope();
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  Metrics* prev_;
};

/// Cool-path increment into the current register, if any.
inline void count(Id id, std::uint64_t n = 1) {
  if (Metrics* m = current()) m->add(id, n);
}
/// Cool-path high-water update into the current register, if any.
inline void note_max(Id id, std::uint64_t v) {
  if (Metrics* m = current()) m->note_max(id, v);
}

}  // namespace wlan::obs
