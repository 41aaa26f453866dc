// One 802.11b channel: the radio medium plus centralized DCF slot
// arbitration.
//
// Model notes (see DESIGN.md §5):
//  * The paper studies "a high density of nodes within a single collision
//    domain"; we arbitrate DCF slots centrally per channel, which is exactly
//    equivalent to per-station carrier sense when every station senses every
//    other.  Two or more stations drawing the same backoff slot transmit
//    together and collide — the congestion process under study.
//  * Carrier sense is partitioned into *sensing domains* keyed by
//    MacEntity::sense_mask: nodes sharing a mask share one slot-arbitration
//    state, and a transmission freezes every domain whose mask intersects
//    the sender's.  With the default mask (1 everywhere) there is exactly
//    one domain and the arbitration reduces to the single-collision-domain
//    model above, event for event.  Disjoint masks model hidden terminals:
//    mutually-deaf groups count down independently, overlap on the air, and
//    collide at the shared receiver through the SINR model.
//  * Reception is SINR-based per receiver: signal over noise plus the sum of
//    all transmissions that overlapped the frame at the receiver, with the
//    PHY capture effect folded into the error model.  Range-limited sniffers
//    therefore miss distant/hidden senders even though slot arbitration is
//    centralized.
//  * SIFS-separated responses (CTS/ACK/DATA-after-CTS) bypass contention via
//    direct transmit() calls; because SIFS < DIFS, they always beat the
//    access timer, giving the standard's atomic exchanges.
//
// Hot-path layout (docs/ARCHITECTURE.md has the full story):
//  * In-flight frames live in a structure-of-arrays pool (FlightTable): the
//    fields the end-of-air path reads — sender link, power, air window,
//    overlap span — are parallel vectors indexed by slot, while the cold
//    payload (frame copy, sender pointer, completion callback) rides in
//    separate arrays of the same slot space.
//  * Overlap lists are not materialized per frame.  Each transmission
//    appends one record to a shared tx log; a frame's interferers are (a) a
//    snapshot of the on-air set taken at its transmit, stored on the channel
//    arena, plus (b) the contiguous tx-log span appended while it was on
//    air.  Both are reclaimed wholesale (log cleared, arena reset) whenever
//    the medium goes idle, which under DCF happens between virtually every
//    exchange — steady state allocates nothing.
//  * Reception is evaluated for all receivers of a frame in one batched
//    pass over the link cache's contiguous rx-power rows
//    (evaluate_receptions_batched).  The scalar per-receiver path is
//    retained verbatim (evaluate_receptions_scalar) behind a runtime
//    switch (EngineOptions::Reference::kScalarReception), and the
//    differential oracle suite pins that both produce byte-identical
//    traces, ground truth and figures.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/frame.hpp"
#include "mac/timing.hpp"
#include "obs/metrics.hpp"
#include "phy/error_model.hpp"
#include "phy/link_cache.hpp"
#include "phy/propagation.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "trace/record.hpp"
#include "util/arena.hpp"
#include "util/flat_map.hpp"
#include "util/log_histogram.hpp"
#include "util/rng.hpp"

namespace wlan::sim {

class Sniffer;

class Channel {
 public:
  /// Frames put on the air are numbered frame_id_base + 1, + 2, ...: a
  /// per-channel id space keeps ids deterministic per run and unique across
  /// a network's channels.
  Channel(Simulator& sim, const phy::Propagation& prop, const mac::Timing& timing,
          std::uint8_t number, std::uint64_t seed,
          std::uint64_t frame_id_base = 0);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a node under its primary address and gives it a link id in
  /// the channel's link-budget cache (O(concurrent nodes) pairwise
  /// precomputation; departed nodes' ids are recycled).
  void add_node(MacEntity* node);
  /// Registers an extra receive address for `node` (virtual-AP BSSIDs).
  void add_alias(mac::Addr alias, MacEntity* node);
  /// Unregisters a node.  Its link id is reclaimed for reuse as soon as no
  /// in-flight frame references the link (immediately when the air is
  /// clear) — the recycling that keeps channel memory and registration cost
  /// proportional to the concurrent population under churn.
  void remove_node(MacEntity* node);
  void add_sniffer(Sniffer* sniffer);

  /// Ground-truth log: one TxRecord per transmission, appended at end of
  /// air, so it is in end-of-air order (time_us is the start of air).
  [[nodiscard]] const std::vector<trace::TxRecord>& ground_truth() const {
    return ground_truth_;
  }

  /// Selects the reception engine: the batched SoA pass (default) or the
  /// retained scalar reference path.  Both are pinned byte-identical by the
  /// differential oracle suite; the scalar path exists to *be* that oracle.
  void set_scalar_reception(bool scalar) { scalar_reception_ = scalar; }

  /// Enters the node into contention with `slots` of backoff to burn.
  /// The node must not already be contending.
  void request_access(MacEntity* node, std::uint32_t slots);

  /// Withdraws a pending access request (e.g. station shutting down).
  void cancel_access(MacEntity* node);

  /// Puts `frame` on the air now.  `on_air_done` (optional) runs at the end
  /// of the frame, before receptions are delivered — senders use it to start
  /// response timeouts.
  void transmit(MacEntity* from, const mac::Frame& frame,
                EventQueue::Callback on_air_done = {});

  [[nodiscard]] bool busy() const { return !on_air_.empty(); }
  [[nodiscard]] std::uint8_t number() const { return number_; }
  [[nodiscard]] const mac::Timing& timing() const { return timing_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }

  /// Position of the node that owns `addr` (aliases included); nullptr when
  /// unknown.  Used for SNR hints toward a peer.
  [[nodiscard]] const MacEntity* peer(mac::Addr addr) const;

  /// Long-term SNR between two channel members — served from the link-budget
  /// cache (the per-frame rate-controller SNR hint rides this); falls back to
  /// the propagation model for endpoints without a link id.
  [[nodiscard]] double link_snr_db(const MacEntity& a, const MacEntity& b) const {
    if (a.link_id_ == phy::LinkBudgetCache::kNoLink ||
        b.link_id_ == phy::LinkBudgetCache::kNoLink) {
      return prop_.snr_db(a.position(), b.position());
    }
    return links_.rx_power_dbm(a.link_id_, b.link_id_) - phy::kNoiseFloorDbm;
  }

  [[nodiscard]] std::uint64_t transmissions() const { return tx_count_; }
  [[nodiscard]] std::uint64_t collisions() const { return collision_count_; }

  /// Link-budget-cache occupancy, for tests pinning the recycling bound:
  /// live ids (current members + sniffers) and the id-space high-water mark
  /// (which recycling keeps at the peak concurrent count, not the lifetime
  /// total).
  [[nodiscard]] std::size_t live_links() const { return links_.endpoints(); }
  [[nodiscard]] std::size_t link_capacity() const {
    return links_.id_capacity();
  }

  /// Deposits this channel's work counters (reception-engine traffic, cache
  /// hit/miss telemetry, arena and link-cache occupancy) into `m`.  Called
  /// once per run by Network::harvest_metrics; everything it reads is a
  /// plain member counter, so the hot paths never touch thread-local state.
  void harvest_metrics(obs::Metrics& m) const;

  /// Delivery RNG draws performed (`rng_.chance` calls — one per receivable
  /// delivery candidate).  The draw count is part of the determinism
  /// contract: the batched-vs-scalar diff test pins it equal across both
  /// reception engines.
  [[nodiscard]] std::uint64_t delivery_chance_draws() const {
    return chance_draws_;
  }
  /// Broadcast-plan cache traffic: replays of a still-valid plan vs
  /// validate-or-rebuild misses.
  [[nodiscard]] std::uint64_t broadcast_plan_hits() const { return plan_hits_; }
  [[nodiscard]] std::uint64_t broadcast_plan_rebuilds() const {
    return plan_rebuilds_;
  }
  /// The channel's frame-success memo (cache telemetry accessors ride it).
  [[nodiscard]] const phy::FrameSuccessCache& frame_success_cache() const {
    return frame_success_;
  }

  /// Rate-layer work counters (member counters on the per-frame path, like
  /// the reception ones above; harvested by harvest_metrics).
  void note_rate_plan() { ++rate_plans_; }
  void note_rate_outcome() { ++rate_outcomes_; }

  /// Records a delivered data MSDU's delay split (paper §6): time queued
  /// behind other heads vs time at the head of the line.  Always on — the
  /// histograms are simulation output (figure material), not obs counters.
  void record_data_delay(Microseconds queued, Microseconds service) {
    queue_delay_us_.record(static_cast<std::uint64_t>(queued.count()));
    service_delay_us_.record(static_cast<std::uint64_t>(service.count()));
  }
  [[nodiscard]] const util::LogHistogram& queue_delay_histogram() const {
    return queue_delay_us_;
  }
  [[nodiscard]] const util::LogHistogram& service_delay_histogram() const {
    return service_delay_us_;
  }

 private:
  using LinkId = phy::LinkBudgetCache::LinkId;

  struct Interferer {
    LinkId link;
    double power_offset_db;
  };

  /// In-flight frame state, structure-of-arrays over recycled slots.  The
  /// first group is everything the SINR/end-of-air path touches; the second
  /// is cold bookkeeping.  All vectors stay the same length (one entry per
  /// pool slot); free slots are listed in free_frames_.
  struct FlightTable {
    std::vector<LinkId> from_link;
    std::vector<double> power_offset_db;
    std::vector<Microseconds> start;
    std::vector<Microseconds> end;
    /// This frame's own record in tx_log_; entries after it (up to the log
    /// size at end-of-air) are the transmissions that overlapped it.
    std::vector<std::uint32_t> log_index;
    /// Arena-resident snapshot of the frames already on air at transmit.
    std::vector<const Interferer*> snapshot;
    std::vector<std::uint32_t> snapshot_len;
    std::vector<std::uint32_t> on_air_pos;

    /// Sender's sense mask at transmit, for per-domain busy accounting.
    std::vector<std::uint32_t> sense_mask;

    std::vector<mac::Frame> frame;
    /// Sender, or nullptr when the node was removed mid-air (the frame
    /// finishes via from_link; see remove_node).
    std::vector<MacEntity*> from;
    std::vector<EventQueue::Callback> on_air_done;

    [[nodiscard]] std::size_t size() const { return from_link.size(); }
    void push_slot();
  };

  /// A finished transmission, copied out of its (recycled) pool slot.  The
  /// snapshot span lives on the arena and the log span in tx_log_, so the
  /// view stays valid through callbacks even if a reentrant transmit claims
  /// the slot.
  struct Completed {
    const mac::Frame* frame = nullptr;
    LinkId from_link = phy::LinkBudgetCache::kNoLink;
    double power_offset_db = 0.0;
    Microseconds start{0};
    const Interferer* snapshot = nullptr;
    std::uint32_t snapshot_len = 0;
    std::uint32_t log_begin = 0;  ///< first overlapping tx-log record
    std::uint32_t log_end = 0;    ///< one past the last
    [[nodiscard]] bool has_overlaps() const {
      return snapshot_len != 0 || log_begin != log_end;
    }
  };

  struct Contender {
    MacEntity* node;
    std::uint32_t slots;
  };

  /// One sensing domain's slot-arbitration state: the contenders whose
  /// exact sense mask is `mask`, their shared idle anchor and access timer,
  /// and the count of on-air frames whose sender mask intersects `mask`
  /// (the domain's carrier-sense busy signal).  Domains are created on
  /// first use and never erased; index 0 is the default mask-1 domain, so
  /// homogeneous runs reduce to the single shared timer they always had.
  struct ContentionDomain {
    std::uint32_t mask = 1;
    std::vector<Contender> contenders;
    Microseconds idle_anchor{0};
    EventId access_timer{};
    Microseconds access_timer_at{0};
    bool access_timer_set = false;
    std::uint32_t busy_refs = 0;
  };

  void on_transmission_end(std::uint32_t slot, std::uint64_t frame_id);
  /// In-flight reference counting on link ids: a frame pins its sender's
  /// link plus every link in its overlap set (snapshot + tx-log span) until
  /// it leaves the air, so a departed endpoint's id is only handed back to
  /// the cache once nothing can index it anymore (deferred recycling; see
  /// remove_node).
  void track_link(LinkId id);
  void release_link(LinkId id);
  /// Reference per-receiver reception path (the differential oracle).
  void evaluate_receptions_scalar(const Completed& done);
  /// Batched SoA reception path: one pass over the sender's rx-power row
  /// for every candidate receiver at once.
  void evaluate_receptions_batched(const Completed& done);
  /// Interference-free broadcast reception via the sender's memoized plan
  /// (validate-or-rebuild, then replay).  See BroadcastPlan.
  void run_broadcast_plan(const Completed& done);
  void record_ground_truth(const Completed& done, trace::TxOutcome outcome);
  /// Index of the domain with exactly `mask`, creating it on first use (a
  /// mid-run creation anchors at now and scans the air for busy senders).
  std::size_t domain_for(std::uint32_t mask);
  void consume_elapsed_slots(ContentionDomain& d, Microseconds busy_start);
  void schedule_access_timer(std::size_t di);
  void fire_access(std::size_t di);
  [[nodiscard]] double sinr_db_at(const Completed& done, LinkId rx) const;

  Simulator& sim_;
  const phy::Propagation& prop_;
  mac::Timing timing_;
  std::uint8_t number_;
  util::Rng rng_;
  phy::LinkBudgetCache links_;
  /// Per-link-id in-flight frame references and the departed-pending-recycle
  /// flag (indexed by link id, grown on registration).
  std::vector<std::uint32_t> link_refs_;
  std::vector<std::uint8_t> link_departed_;
  phy::FrameSuccessCache frame_success_;
  /// Exact memos for the interference unit conversions (hits return the
  /// identical doubles the libm calls would; see phy::ExactUnaryMemo).
  /// mutable: sinr_db_at is logically const; memo fills are invisible to
  /// callers (hits and misses return the same bits).
  mutable phy::ExactUnaryMemo<&phy::dbm_to_mw> dbm_to_mw_memo_;
  mutable phy::ExactUnaryMemo<&phy::mw_to_dbm> mw_to_dbm_memo_;
  /// Noise floor in mW and its dB round-trip, hoisted out of sinr_db_at
  /// (bit-identical to recomputing per call; see sinr_db_at).
  double noise_mw_ = 0.0;
  double noise_db_roundtrip_ = 0.0;

  struct SnifferRef {
    Sniffer* sniffer;
    LinkId link;
  };

  /// Memoized reception geometry for an interference-free broadcast frame
  /// from one sender.  Beacons dominate this shape: a static AP re-derives
  /// the identical candidate set, SINR vector and per-candidate success
  /// probability every beacon interval.  A plan is reusable only while
  /// nothing it was derived from can have changed: every membership change,
  /// roam, sniffer registration or id reuse bumps links_.version(); a node
  /// removal whose link release is still deferred bumps nodes_epoch_ first;
  /// and the frame key (rate, size, sender power as a bit pattern) is
  /// compared exactly.  Replaying a plan draws the delivery RNG once per
  /// candidate in nodes_ order — the same draws, against the same doubles,
  /// as a rebuild — so cached and uncached runs stay byte-identical.
  struct BroadcastPlan {
    std::uint64_t links_version = ~0ull;
    std::uint64_t nodes_epoch = ~0ull;
    std::uint64_t power_offset_bits = 0;
    phy::Rate rate = phy::Rate::kR1;
    std::uint32_t bytes = 0;
    std::uint32_t sniffer_count = 0;
    std::vector<MacEntity*> node;  ///< receivable nodes, nodes_ order
    std::vector<double> sinr;      ///< per candidate (no-overlap SINR)
    std::vector<double> p;         ///< frame_success_(rate, bytes, sinr)
    std::vector<double> sniffer_sinr;
    std::vector<std::uint8_t> sniffer_in_range;
  };

  /// Receive-address table (primary addresses + virtual-AP aliases).
  /// kBroadcast is the reserved empty marker: it is delivered by iteration,
  /// never by lookup.
  util::FlatMap<mac::Addr, MacEntity*, mac::kBroadcast> by_addr_;
  std::vector<MacEntity*> nodes_;
  /// nodes_[i]->link_id_, maintained in lock-step — the contiguous id list
  /// the batched broadcast pass gathers rx power through.
  std::vector<LinkId> node_links_;
  /// Bumped on every add_node/remove_node; the batched delivery loop uses it
  /// to detect (hypothetical) membership churn mid-delivery and re-validate
  /// receiver pointers instead of touching freed nodes.
  std::uint64_t nodes_epoch_ = 0;
  std::vector<SnifferRef> sniffers_;
  /// In-flight frames: a recycled slot pool (SoA) plus the list of live
  /// slots.  End-of-air events address their frame by slot in O(1).
  FlightTable flight_;
  std::vector<std::uint32_t> free_frames_;
  std::vector<std::uint32_t> on_air_;
  /// One record per transmission, in transmit order; cleared when the
  /// medium goes idle.  A frame's interferers-after-transmit are the
  /// contiguous span (log_index, size-at-end-of-air).
  std::vector<Interferer> tx_log_;
  /// Overlap snapshots and reception scratch; reset when the medium goes
  /// idle (snapshots) / rewound per evaluation (scratch).
  util::Arena arena_;
  /// Snapshot allocations ever made; evaluate_receptions_batched skips its
  /// scratch rewind if a reentrant transmit put a snapshot above the mark.
  std::uint64_t snapshot_allocs_ = 0;
  /// Per-sender broadcast plans, indexed by link id (populated lazily for
  /// ids that actually send interference-free broadcasts — in practice the
  /// APs).  Bounded by peak concurrent link ids, like the link cache itself.
  std::vector<BroadcastPlan> broadcast_plans_;
  /// Sensing domains (see ContentionDomain); [0] is the default mask-1
  /// domain, created in the constructor with the historic t=0 idle anchor.
  std::vector<ContentionDomain> domains_;

  std::vector<trace::TxRecord> ground_truth_;
  std::uint64_t last_frame_id_ = 0;
  std::uint64_t tx_count_ = 0;
  std::uint64_t collision_count_ = 0;
  // Work counters (see harvest_metrics).  Plain members, not obs::count()
  // calls: end-of-air and delivery are the hottest paths in the simulator
  // and must not pay a TLS lookup.
  std::uint64_t end_of_air_ = 0;
  std::uint64_t access_grants_ = 0;
  std::uint64_t chance_draws_ = 0;
  std::uint64_t receptions_scalar_ = 0;
  std::uint64_t receptions_batched_ = 0;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t plan_rebuilds_ = 0;
  std::uint64_t links_recycled_ = 0;
  /// Link-cache version ticks attributable to sniffer registration, so
  /// harvest_metrics can report station-lifecycle mutations separately
  /// (the two drivers of links_.version() answer different questions).
  std::uint64_t sniffer_link_mutations_ = 0;
  std::uint64_t rate_plans_ = 0;
  std::uint64_t rate_outcomes_ = 0;
  /// Delivered-MSDU delay components (always on; see record_data_delay).
  util::LogHistogram queue_delay_us_;
  util::LogHistogram service_delay_us_;
  bool scalar_reception_ = false;
};

}  // namespace wlan::sim
