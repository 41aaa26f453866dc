#include "sim/channel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "phy/error_model.hpp"
#include "sim/sniffer.hpp"

namespace wlan::sim {

Channel::Channel(Simulator& sim, const phy::Propagation& prop,
                 const mac::Timing& timing, std::uint8_t number,
                 std::uint64_t seed, std::uint64_t frame_id_base)
    : sim_(sim), prop_(prop), timing_(timing), number_(number),
      rng_(seed ^ (0xC0FFEEULL + number)), links_(prop),
      // Start the memos small (a unit-test cell touches a few hundred keys)
      // but let a big session grow them; size never changes returned values
      // (see phy::ExactMemo).
      frame_success_(12, 14), dbm_to_mw_memo_(10, 15), mw_to_dbm_memo_(10, 15),
      noise_mw_(phy::dbm_to_mw(phy::kNoiseFloorDbm)),
      noise_db_roundtrip_(phy::mw_to_dbm(noise_mw_)),
      last_frame_id_(frame_id_base) {
  // The default mask-1 domain exists from t=0 with the historic zero idle
  // anchor, so homogeneous runs never take the mid-run creation path.
  domains_.push_back(ContentionDomain{});
}

void Channel::track_link(LinkId id) {
  if (link_refs_.size() <= id) {
    link_refs_.resize(id + 1, 0);
    link_departed_.resize(id + 1, 0);
  }
  // A recycled id must come back clean: no in-flight frame may still name
  // it (that is the whole deferment invariant) and its departed flag was
  // cleared when it was reclaimed.
  assert(link_refs_[id] == 0);
  assert(link_departed_[id] == 0);
}

void Channel::release_link(LinkId id) {
  assert(link_refs_[id] > 0);
  if (--link_refs_[id] == 0 && link_departed_[id] != 0) {
    link_departed_[id] = 0;
    links_.remove_endpoint(id);
    ++links_recycled_;
  }
}

void Channel::add_node(MacEntity* node) {
  node->link_id_ = links_.add_endpoint(node->position());
  track_link(node->link_id_);
  nodes_.push_back(node);
  node_links_.push_back(node->link_id_);
  ++nodes_epoch_;
  by_addr_.insert_or_assign(node->addr(), node);
}

void Channel::add_alias(mac::Addr alias, MacEntity* node) {
  by_addr_.insert_or_assign(alias, node);
}

void Channel::remove_node(MacEntity* node) {
  cancel_access(node);
  const LinkId old_link = node->link_id_;
  node->link_id_ = phy::LinkBudgetCache::kNoLink;  // no longer on a channel
  for (std::size_t i = 0; i < nodes_.size();) {
    if (nodes_[i] == node) {
      nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(i));
      node_links_.erase(node_links_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  ++nodes_epoch_;
  std::vector<mac::Addr> owned;
  by_addr_.for_each([&](mac::Addr addr, MacEntity* owner) {
    if (owner == node) owned.push_back(addr);
  });
  for (mac::Addr addr : owned) by_addr_.erase(addr);
  // Frames of `node` still on the air must not reach back into it: the
  // sender pointer and its completion callback die here; reception is
  // evaluated from the link-budget cache (from_link stays valid), so the
  // frame itself still finishes, interferes and reaches sniffers.
  for (const std::uint32_t slot : on_air_) {
    Flight& f = flight_[slot];
    if (f.from == node) {
      f.from = nullptr;
      f.on_air_done = nullptr;
    }
  }
  // Reclaim the link id.  An in-flight frame referencing the link (as its
  // sender or in an overlap snapshot / tx-log span) defers the reclaim to
  // the last release_link — reusing the id earlier would silently re-aim a
  // dead frame's interference at a newcomer's position.
  if (old_link != phy::LinkBudgetCache::kNoLink) {
    if (link_refs_[old_link] == 0) {
      links_.remove_endpoint(old_link);
      ++links_recycled_;
    } else {
      link_departed_[old_link] = 1;
    }
  }
}

void Channel::add_sniffer(Sniffer* sniffer) {
  const std::uint64_t version_before = links_.version();
  const LinkId link = links_.add_endpoint(sniffer->position());
  track_link(link);  // never referenced by frames, but keeps indexing dense
  sniffer_link_mutations_ += links_.version() - version_before;
  sniffers_.push_back({sniffer, link});
}

const MacEntity* Channel::peer(mac::Addr addr) const {
  MacEntity* const* it = by_addr_.find(addr);
  return it == nullptr ? nullptr : *it;
}

std::size_t Channel::domain_for(std::uint32_t mask) {
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (domains_[i].mask == mask) return i;
  }
  // First node with this mask: anchor the new domain's idle grid at now and
  // count the senders already on the air that it can hear.
  ContentionDomain d;
  d.mask = mask;
  d.idle_anchor = sim_.now();
  for (const std::uint32_t slot : on_air_) {
    if ((flight_[slot].sense_mask & mask) != 0) ++d.busy_refs;
  }
  domains_.push_back(std::move(d));
  return domains_.size() - 1;
}

void Channel::request_access(MacEntity* node, std::uint32_t slots) {
  // A node removed from the channel has its link id severed (see
  // remove_node); letting it contend again would put a kNoLink frame on the
  // air.  Assert in Debug, refuse in Release.
  assert(node->link_id_ != phy::LinkBudgetCache::kNoLink);
  if (node->link_id_ == phy::LinkBudgetCache::kNoLink) return;
  const std::size_t di = domain_for(node->sense_mask());
  ContentionDomain& d = domains_[di];
  assert(std::none_of(d.contenders.begin(), d.contenders.end(),
                      [&](const Contender& c) { return c.node == node; }));
  // A station joining mid-idle must still sense a full DIFS before counting
  // slots; on the shared timer that means its countdown starts at the first
  // slot boundary at or after join + DIFS.  The boundary grid begins at
  // idle_anchor + DIFS, so the handicap is (now - idle_anchor) rounded *up*
  // to whole slots.  Rounding down here would let a partial slot count as a
  // full one for the joiner (and a clamped timer could even grant access
  // before DIFS); ceil also keeps every contender's stored count an exact
  // boundary index, so consume_elapsed_slots' uniform whole-slot charge never
  // credits a duplicate slot across a freeze/resume cycle.
  std::uint32_t handicap = 0;
  if (d.busy_refs == 0) {
    const auto since_idle = sim_.now() - d.idle_anchor;
    if (since_idle > Microseconds{0}) {
      const auto slot = timing_.slot.count();
      handicap =
          static_cast<std::uint32_t>((since_idle.count() + slot - 1) / slot);
    }
  }
  d.contenders.push_back(Contender{node, slots + handicap});
  if (d.busy_refs == 0) schedule_access_timer(di);
}

void Channel::cancel_access(MacEntity* node) {
  const std::size_t di = domain_for(node->sense_mask());
  ContentionDomain& d = domains_[di];
  const auto it = std::find_if(d.contenders.begin(), d.contenders.end(),
                               [&](const Contender& c) { return c.node == node; });
  if (it == d.contenders.end()) return;
  d.contenders.erase(it);
  if (d.busy_refs == 0) schedule_access_timer(di);
}

void Channel::transmit(MacEntity* from, const mac::Frame& frame,
                       Simulator::Callback on_air_done) {
  // A removed node's kNoLink id would index the link-budget table far out of
  // bounds when the frame leaves the air.  Assert in Debug, drop in Release
  // (the dead node's on_air_done is intentionally not invoked).
  assert(from->link_id_ != phy::LinkBudgetCache::kNoLink);
  if (from->link_id_ == phy::LinkBudgetCache::kNoLink) return;
  std::uint32_t slot;
  if (free_frames_.empty()) {
    slot = static_cast<std::uint32_t>(flight_.size());
    flight_.emplace_back();
  } else {
    slot = free_frames_.back();
    free_frames_.pop_back();
  }
  Flight& f = flight_[slot];
  f = Flight{.frame = frame,
             .from = from,
             .on_air_done = std::move(on_air_done),
             .from_link = from->link_id_,
             .power_offset_db = from->tx_power_offset_db(),
             .start = sim_.now(),
             .sense_mask = from->sense_mask()};
  f.frame.id = ++last_frame_id_;
  // Overlap bookkeeping with everything already on air, in two halves:
  // frames already in flight are snapshotted (arena span, on_air_ order —
  // the same order the old per-frame overlap vectors accumulated), and our
  // own record goes on the shared tx log so that in-flight frames pick us
  // up via their log span at end-of-air.  Every link id a frame will read
  // at its end — its own, each snapshot entry, each log-span entry — takes
  // an in-flight reference now, pinning the id against recycling.
  ++link_refs_[f.from_link];
  f.snapshot_len = static_cast<std::uint32_t>(on_air_.size());
  if (f.snapshot_len != 0) {
    Interferer* snap = arena_.alloc_array<Interferer>(f.snapshot_len);
    ++snapshot_allocs_;
    for (std::uint32_t i = 0; i < f.snapshot_len; ++i) {
      const Flight& other = flight_[on_air_[i]];
      snap[i] = Interferer{other.from_link, other.power_offset_db};
      ++link_refs_[other.from_link];  // we read their record at our end-of-air
      ++link_refs_[f.from_link];      // they read ours via their log span
    }
    f.snapshot = snap;
  }
  tx_log_.push_back(Interferer{f.from_link, f.power_offset_db});
  f.log_begin = static_cast<std::uint32_t>(tx_log_.size());
  on_air_.push_back(slot);
  ++tx_count_;

  // Every domain that can hear the sender goes busy; a domain transitioning
  // idle->busy with a pending access timer freezes its backoff countdown.
  for (ContentionDomain& d : domains_) {
    if ((d.mask & f.sense_mask) == 0) continue;
    if (d.busy_refs++ == 0 && sim_.live(d.access_timer)) {
      sim_.cancel(d.access_timer);
      consume_elapsed_slots(d, sim_.now());
    }
  }

  // Capture the slot plus the frame id as a cross-check against slot
  // recycling bugs.
  const std::uint64_t id = f.frame.id;
  sim_.at(f.start + frame.airtime(),
          [this, slot, id] { on_transmission_end(slot, id); });
}

void Channel::consume_elapsed_slots(ContentionDomain& d,
                                    Microseconds busy_start) {
  const auto countdown_start = d.idle_anchor + timing_.difs;
  if (busy_start <= countdown_start) return;
  // Only whole slot boundaries count; a partial slot is re-waited in full
  // after the busy period, exactly as DCF resumes a frozen countdown.  Every
  // contender's stored count is a boundary index on the same grid (see the
  // ceil in request_access), so this uniform charge is exact — nobody gets a
  // fractional slot credited twice.
  const auto elapsed = static_cast<std::uint32_t>(
      (busy_start - countdown_start).count() / timing_.slot.count());
  for (Contender& c : d.contenders) {
    c.slots = c.slots > elapsed ? c.slots - elapsed : 0;
  }
}

void Channel::on_transmission_end(std::uint32_t slot, std::uint64_t frame_id) {
  // Move the finished frame out of its slot, then recycle the slot before
  // any callback runs: a reentrant transmit may claim it.  The snapshot
  // span lives on the arena and the log span in tx_log_, both stable until
  // the idle reset below.
  Flight done = std::move(flight_[slot]);
  assert(done.frame.id == frame_id);
  (void)frame_id;
  ++end_of_air_;
  // Every record appended while we were on air overlapped us; a record a
  // reentrant transmit appends during our callbacks is after this instant
  // and does not (the scalar path agrees: we are out of on_air_ by then).
  done.log_end = static_cast<std::uint32_t>(tx_log_.size());
  // Domains created during this frame's callbacks (index >= n_domains)
  // never counted it — neither at transmit nor in their creation scan,
  // which runs after the swap-erase below — so only pre-existing domains
  // take part in this frame's busy bookkeeping.
  const std::size_t n_domains = domains_.size();

  // Unlink from the live list by swap-erase (the list holds a handful of
  // slots) and recycle the slot.
  *std::find(on_air_.begin(), on_air_.end(), slot) = on_air_.back();
  on_air_.pop_back();
  free_frames_.push_back(slot);

  // The frame stops occupying its sensing domains here, in step with the
  // on_air_ erasure — a request_access issued from inside the callbacks
  // below must see the domain idle (it joins the *previous* idle period's
  // slot grid via the handicap, exactly like the old single-timer medium).
  // The idle anchor and timer move only after the callbacks, in the
  // idle-transition loop at the bottom.
  for (std::size_t di = 0; di < n_domains; ++di) {
    ContentionDomain& d = domains_[di];
    if ((d.mask & done.sense_mask) == 0) continue;
    assert(d.busy_refs > 0);
    --d.busy_refs;
  }

  // Sender bookkeeping first (start timeouts), then receptions, then medium
  // state — so a SIFS response scheduled during reception still sees the
  // correct idle anchor.
  if (done.on_air_done) done.on_air_done();
  if (scalar_reception_) {
    ++receptions_scalar_;
    evaluate_receptions_scalar(done);
  } else {
    ++receptions_batched_;
    evaluate_receptions_batched(done);
  }
  // Every frame a sniffer has yet to observe is on the air now or starts
  // later, so a streaming sniffer's records that start before
  // air_horizon() are final.
  for (const SnifferRef& s : sniffers_) {
    if (s.sniffer->streams()) s.sniffer->hand_over(air_horizon());
  }
  // The frame is fully processed: drop its link references.  A link whose
  // owner departed mid-air is recycled here, on the last holder's release.
  release_link(done.from_link);
  for (std::uint32_t i = 0; i < done.snapshot_len; ++i) {
    release_link(done.snapshot[i].link);
  }
  for (std::uint32_t k = done.log_begin; k < done.log_end; ++k) {
    release_link(tx_log_[k].link);
  }
  if (on_air_.empty()) {
    // Busy burst over: nothing references the snapshots or the log anymore.
    // Reclaim both wholesale — this is the "arena resets at end-of-air"
    // lifetime rule, and under DCF it triggers between almost every
    // exchange, so the arena never grows past one burst's worth.
    tx_log_.clear();
    arena_.reset();
  }
  // Idle transition (the old single-domain medium_went_idle, per domain):
  // every domain this frame occupied that is still idle after the
  // callbacks restarts its slot grid at now and re-arms its timer —
  // re-anchoring any timer a mid-callback joiner armed on the stale grid.
  // A reentrant transmit during the callbacks leaves busy_refs != 0 and
  // skips the domain, exactly as the old code skipped medium_went_idle.
  for (std::size_t di = 0; di < n_domains; ++di) {
    ContentionDomain& d = domains_[di];
    if ((d.mask & done.sense_mask) == 0) continue;
    if (d.busy_refs == 0) {
      d.idle_anchor = sim_.now();
      schedule_access_timer(di);
    }
  }
}

Microseconds Channel::air_horizon() const {
  Microseconds horizon = sim_.now();
  for (const std::uint32_t slot : on_air_) {
    horizon = std::min(horizon, flight_[slot].start);
  }
  return horizon;
}

double Channel::sinr_db_at(const Flight& done, LinkId rx) const {
  const double signal_dbm =
      links_.rx_power_dbm(done.from_link, rx) + done.power_offset_db;
  if (!done.has_overlaps()) {
    // No interference: denom == noise floor.  noise_db_roundtrip_ is the
    // precomputed mw_to_dbm(dbm_to_mw(floor)) — the exact double the general
    // path below would produce — so skipping its pow/log10 pair per frame
    // leaves every SINR bit-identical.
    return signal_dbm - noise_db_roundtrip_;
  }
  // Snapshot entries first, then the log span: the same accumulation order
  // as the old per-frame overlap vector (on-air set at transmit, then later
  // transmitters in transmit order), so every double matches bit for bit.
  double denom_mw = noise_mw_;
  for (std::uint32_t i = 0; i < done.snapshot_len; ++i) {
    const Interferer& in = done.snapshot[i];
    denom_mw += dbm_to_mw_memo_(links_.rx_power_dbm(in.link, rx) +
                                in.power_offset_db);
  }
  for (std::uint32_t k = done.log_begin; k < done.log_end; ++k) {
    const Interferer& in = tx_log_[k];
    denom_mw += dbm_to_mw_memo_(links_.rx_power_dbm(in.link, rx) +
                                in.power_offset_db);
  }
  return signal_dbm - mw_to_dbm_memo_(denom_mw);
}

void Channel::evaluate_receptions_scalar(const Flight& done) {
  const mac::Frame& f = done.frame;

  // Range check with the sender's power offset folded in.
  auto receivable = [&](LinkId rx) {
    return links_.rx_power_dbm(done.from_link, rx) + done.power_offset_db >=
           phy::kMinRxDbm;
  };

  // Broadcast delivery: each node draws its own reception independently.
  auto try_deliver = [&](MacEntity* rx) {
    if (rx->link_id_ == done.from_link) return;
    if (!receivable(rx->link_id_)) return;
    const double sinr = sinr_db_at(done, rx->link_id_);
    const double p = frame_success_(f.rate, f.size_bytes(), sinr);
    ++chance_draws_;
    if (rng_.chance(p)) rx->on_receive(f, sinr);
  };

  if (f.dst == mac::kBroadcast) {
    // By index, not iterator: a receiver reacting with remove_node erases
    // from nodes_ mid-loop.  The swap a concurrent erase causes may skip one
    // delivery, but never touches a removed node or invalidated memory.
    for (std::size_t i = 0; i < nodes_.size(); ++i) try_deliver(nodes_[i]);
    record_ground_truth(done, trace::TxOutcome::kDelivered);
  } else {
    MacEntity* const* it = by_addr_.find(f.dst);
    MacEntity* rx = it == nullptr ? nullptr : *it;
    trace::TxOutcome outcome = trace::TxOutcome::kChannelError;
    if (rx && rx->link_id_ != done.from_link) {
      bool delivered = false;
      double sinr = -100.0;
      if (receivable(rx->link_id_)) {
        sinr = sinr_db_at(done, rx->link_id_);
        const double p = frame_success_(f.rate, f.size_bytes(), sinr);
        ++chance_draws_;
        delivered = rng_.chance(p);
      }
      if (delivered) {
        outcome = trace::TxOutcome::kDelivered;
      } else if (done.has_overlaps()) {
        outcome = trace::TxOutcome::kCollision;
        ++collision_count_;
      }
      if (delivered) rx->on_receive(f, sinr);
    }
    record_ground_truth(done, outcome);
  }

  // Sniffers overhear everything on their channel, range permitting.
  for (const SnifferRef& s : sniffers_) {
    s.sniffer->observe(f, done.start, sinr_db_at(done, s.link),
                       receivable(s.link));
  }
}

void Channel::evaluate_receptions_batched(const Flight& done) {
  const mac::Frame& f = done.frame;
  if (f.dst == mac::kBroadcast && !done.has_overlaps()) {
    // The by-far-hottest broadcast shape (beacons on a quiet medium) goes
    // through the sender's memoized plan instead of re-gathering.
    run_broadcast_plan(done);
    return;
  }
  const double offset = done.power_offset_db;
  const double* const srow = links_.row(done.from_link);
  const std::uint32_t bytes = f.size_bytes();

  // Scratch comes off the arena and is rewound on exit — unless a receiver
  // callback reentrantly transmitted, in which case its overlap snapshot
  // sits above our mark and the scratch is left for the idle reset instead.
  const util::Arena::Marker scratch_mark = arena_.mark();
  const std::uint64_t snaps_before = snapshot_allocs_;

  // Candidate receivers: delivery targets first — for broadcast the
  // receivable nodes in nodes_ order, so the channel RNG draws in exactly
  // the scalar path's sequence — then every sniffer (a sniffer gets a SINR
  // even out of range; its observe() counts the miss).
  const std::size_t max_cand =
      (f.dst == mac::kBroadcast ? nodes_.size() : 1) + sniffers_.size();
  LinkId* cand_link = arena_.alloc_array<LinkId>(max_cand);
  double* sig = arena_.alloc_array<double>(max_cand);
  double* sinr = arena_.alloc_array<double>(max_cand);
  MacEntity** cand_node = arena_.alloc_array<MacEntity*>(max_cand);
  std::size_t n = 0;

  MacEntity* unicast_rx = nullptr;
  if (f.dst == mac::kBroadcast) {
    const LinkId* const nl = node_links_.data();
    const std::size_t n_nodes = nodes_.size();
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const LinkId l = nl[i];
      const double s = srow[l] + offset;
      // Keep the scalar comparison orientation (signal vs threshold, offset
      // folded into the signal) so the receivable set matches bit for bit.
      if (l != done.from_link && s >= phy::kMinRxDbm) {
        cand_link[n] = l;
        sig[n] = s;
        cand_node[n] = nodes_[i];
        ++n;
      }
    }
  } else {
    MacEntity* const* it = by_addr_.find(f.dst);
    MacEntity* rx = it == nullptr ? nullptr : *it;
    if (rx && rx->link_id_ != done.from_link) {
      unicast_rx = rx;
      const LinkId l = rx->link_id_;
      const double s = srow[l] + offset;
      if (s >= phy::kMinRxDbm) {
        cand_link[n] = l;
        sig[n] = s;
        cand_node[n] = rx;
        ++n;
      }
    }
  }
  const std::size_t deliver_end = n;  // candidates that draw delivery RNG
  for (const SnifferRef& s : sniffers_) {
    cand_link[n] = s.link;
    sig[n] = srow[s.link] + offset;
    cand_node[n] = nullptr;
    ++n;
  }

  // SINR for every candidate in one pass: per receiver the accumulation
  // order (noise, snapshot entries, log span) is exactly sinr_db_at's, so
  // the doubles are bit-identical — the loops are merely interchanged to
  // walk each interferer's contiguous rx-power row across all receivers.
  if (!done.has_overlaps()) {
    for (std::size_t i = 0; i < n; ++i) sinr[i] = sig[i] - noise_db_roundtrip_;
  } else {
    double* denom_mw = arena_.alloc_array<double>(n);
    for (std::size_t i = 0; i < n; ++i) denom_mw[i] = noise_mw_;
    auto accumulate = [&](const Interferer& in) {
      const double* const orow = links_.row(in.link);
      const double w = in.power_offset_db;
      for (std::size_t i = 0; i < n; ++i) {
        denom_mw[i] += dbm_to_mw_memo_(orow[cand_link[i]] + w);
      }
    };
    for (std::uint32_t i = 0; i < done.snapshot_len; ++i) {
      accumulate(done.snapshot[i]);
    }
    for (std::uint32_t k = done.log_begin; k < done.log_end; ++k) {
      accumulate(tx_log_[k]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      sinr[i] = sig[i] - mw_to_dbm_memo_(denom_mw[i]);
    }
  }

  // Delivery.  RNG draws happen in candidate order — the scalar path's
  // order — and only for the delivery candidates, never sniffers.
  if (f.dst == mac::kBroadcast) {
    const std::uint64_t epoch = nodes_epoch_;
    chance_draws_ += deliver_end;
    for (std::size_t i = 0; i < deliver_end; ++i) {
      const double p = frame_success_(f.rate, bytes, sinr[i]);
      if (!rng_.chance(p)) continue;
      MacEntity* rx = cand_node[i];
      // Membership churn mid-delivery (nothing in the tree does this today:
      // receivers defer reactions to the event queue) invalidates the
      // candidate snapshot; re-validate before touching the node.
      if (nodes_epoch_ != epoch &&
          std::find(nodes_.begin(), nodes_.end(), rx) == nodes_.end()) {
        continue;
      }
      rx->on_receive(f, sinr[i]);
    }
    record_ground_truth(done, trace::TxOutcome::kDelivered);
  } else {
    trace::TxOutcome outcome = trace::TxOutcome::kChannelError;
    if (unicast_rx) {
      bool delivered = false;
      double rx_sinr = -100.0;
      if (deliver_end == 1) {  // the destination was receivable
        rx_sinr = sinr[0];
        const double p = frame_success_(f.rate, bytes, rx_sinr);
        ++chance_draws_;
        delivered = rng_.chance(p);
      }
      if (delivered) {
        outcome = trace::TxOutcome::kDelivered;
      } else if (done.has_overlaps()) {
        outcome = trace::TxOutcome::kCollision;
        ++collision_count_;
      }
      if (delivered) unicast_rx->on_receive(f, rx_sinr);
    }
    record_ground_truth(done, outcome);
  }

  for (std::size_t j = 0; j < sniffers_.size(); ++j) {
    const std::size_t i = deliver_end + j;
    sniffers_[j].sniffer->observe(f, done.start, sinr[i],
                                  sig[i] >= phy::kMinRxDbm);
  }

  if (snapshot_allocs_ == snaps_before) arena_.rewind(scratch_mark);
}

void Channel::run_broadcast_plan(const Flight& done) {
  const mac::Frame& f = done.frame;
  const std::uint32_t bytes = f.size_bytes();
  // Key the sender's power as a bit pattern: double == would conflate +0.0
  // with -0.0, whose additions can round differently.
  std::uint64_t offset_bits = 0;
  static_assert(sizeof offset_bits == sizeof done.power_offset_db);
  std::memcpy(&offset_bits, &done.power_offset_db, sizeof offset_bits);

  if (done.from_link >= broadcast_plans_.size()) {
    broadcast_plans_.resize(done.from_link + 1);
  }
  BroadcastPlan& plan = broadcast_plans_[done.from_link];

  const bool reusable = plan.links_version == links_.version() &&
                        plan.nodes_epoch == nodes_epoch_ &&
                        plan.rate == f.rate && plan.bytes == bytes &&
                        plan.power_offset_bits == offset_bits;
  reusable ? ++plan_hits_ : ++plan_rebuilds_;
  if (!reusable) {
    plan.links_version = links_.version();
    plan.nodes_epoch = nodes_epoch_;
    plan.rate = f.rate;
    plan.bytes = bytes;
    plan.power_offset_bits = offset_bits;
    plan.node.clear();
    plan.sinr.clear();
    plan.p.clear();
    plan.sniffer_sinr.clear();
    plan.sniffer_in_range.clear();

    // Same gather as the unplanned batched pass: receivable nodes in nodes_
    // order (comparison orientation included), then every sniffer.  With no
    // overlaps the SINR is signal minus the precomputed noise round-trip,
    // and the success probability depends only on (rate, bytes, sinr) —
    // frame_success_ is exact-keyed, so evaluating it here instead of inside
    // the delivery loop returns the identical doubles.
    const double offset = done.power_offset_db;
    const double* const srow = links_.row(done.from_link);
    const LinkId* const nl = node_links_.data();
    const std::size_t n_nodes = nodes_.size();
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const LinkId l = nl[i];
      const double s = srow[l] + offset;
      if (l != done.from_link && s >= phy::kMinRxDbm) {
        const double sinr = s - noise_db_roundtrip_;
        plan.node.push_back(nodes_[i]);
        plan.sinr.push_back(sinr);
        plan.p.push_back(frame_success_(f.rate, bytes, sinr));
      }
    }
    for (const SnifferRef& s : sniffers_) {
      const double sig = srow[s.link] + offset;
      plan.sniffer_sinr.push_back(sig - noise_db_roundtrip_);
      plan.sniffer_in_range.push_back(sig >= phy::kMinRxDbm ? 1 : 0);
    }
  }

  // Replay (fresh or reused): one delivery draw per candidate in nodes_
  // order — exactly the unplanned pass's RNG sequence — with the same
  // mid-delivery membership re-validation.
  const std::uint64_t epoch = nodes_epoch_;
  const std::size_t deliver_end = plan.node.size();
  chance_draws_ += deliver_end;
  for (std::size_t i = 0; i < deliver_end; ++i) {
    if (!rng_.chance(plan.p[i])) continue;
    MacEntity* rx = plan.node[i];
    if (nodes_epoch_ != epoch &&
        std::find(nodes_.begin(), nodes_.end(), rx) == nodes_.end()) {
      continue;
    }
    rx->on_receive(f, plan.sinr[i]);
  }
  record_ground_truth(done, trace::TxOutcome::kDelivered);

  for (std::size_t j = 0; j < sniffers_.size(); ++j) {
    sniffers_[j].sniffer->observe(f, done.start, plan.sniffer_sinr[j],
                                  plan.sniffer_in_range[j] != 0);
  }
}

void Channel::harvest_metrics(obs::Metrics& m) const {
  using obs::Id;
  m.add(Id::kTransmissions, tx_count_);
  m.add(Id::kCollisions, collision_count_);
  m.add(Id::kEndOfAirEvents, end_of_air_);
  m.add(Id::kAccessGrants, access_grants_);
  m.add(Id::kDeliveryChanceDraws, chance_draws_);
  m.add(Id::kReceptionsScalar, receptions_scalar_);
  m.add(Id::kReceptionsBatched, receptions_batched_);
  m.add(Id::kBroadcastPlanHits, plan_hits_);
  m.add(Id::kBroadcastPlanRebuilds, plan_rebuilds_);
  m.add(Id::kLinkIdsRecycled, links_recycled_);
  m.add(Id::kFrameSuccessHits, frame_success_.hits());
  m.add(Id::kFrameSuccessEvals, frame_success_.evals());
  m.add(Id::kFrameSuccessSaturated, frame_success_.saturated());
  m.add(Id::kFrameSuccessResizes, frame_success_.resizes());
  m.add(Id::kDbmToMwHits, dbm_to_mw_memo_.hits());
  m.add(Id::kDbmToMwEvals, dbm_to_mw_memo_.evals());
  m.add(Id::kMwToDbmHits, mw_to_dbm_memo_.hits());
  m.add(Id::kMwToDbmEvals, mw_to_dbm_memo_.evals());
  m.note_max(Id::kLinkCacheEndpointsHw, links_.endpoints());
  m.note_max(Id::kLinkCacheIdCapacityHw, links_.id_capacity());
  // links_.version() ticks on every cache mutation; subtracting the ticks
  // attributed to sniffer registration leaves the station-lifecycle share
  // (join / depart / roam / id reuse), which is what the old conflated
  // phy.link_cache_mutations counter was usually read as.
  m.add(Id::kLinkCacheStationMutations,
        links_.version() - sniffer_link_mutations_);
  m.add(Id::kLinkCacheSnifferRegistrations, sniffer_link_mutations_);
  m.note_max(Id::kArenaBlocksHw, arena_.block_count());
  m.note_max(Id::kArenaCapacityBytesHw, arena_.capacity_bytes());
  m.note_max(Id::kArenaAllocBytesHw, arena_.alloc_bytes_high_water());
  m.add(Id::kArenaResets, arena_.resets());
  m.add(Id::kRatePlans, rate_plans_);
  m.add(Id::kRateOutcomes, rate_outcomes_);
}

void Channel::record_ground_truth(const Flight& done,
                                  trace::TxOutcome outcome) {
  if (!keep_ground_truth_) return;
  // Single construction point for both broadcast and unicast records, so the
  // ground truth's field mapping cannot drift between the two paths.
  const mac::Frame& f = done.frame;
  trace::TxRecord rec;
  rec.time_us = done.start.count();
  rec.frame_id = f.id;
  rec.type = f.type;
  rec.src = f.src;
  rec.dst = f.dst;
  rec.channel = number_;
  rec.rate = f.rate;
  rec.size_bytes = f.size_bytes();
  rec.retry = f.retry;
  rec.seq = f.seq;
  rec.outcome = outcome;
  ground_truth_.push_back(rec);
}

void Channel::schedule_access_timer(std::size_t di) {
  ContentionDomain& d = domains_[di];
  if (d.busy_refs != 0 || d.contenders.empty()) {
    sim_.cancel(d.access_timer);
    return;
  }
  const auto min_it = std::min_element(
      d.contenders.begin(), d.contenders.end(),
      [](const Contender& a, const Contender& b) { return a.slots < b.slots; });
  const Microseconds fire_at =
      d.idle_anchor + timing_.difs + timing_.slot * min_it->slots;
  const Microseconds when = fire_at < sim_.now() ? sim_.now() : fire_at;
  // A contender joining or withdrawing usually leaves the earliest grant
  // unchanged; keep the armed timer instead of a cancel + reschedule pair.
  if (sim_.live(d.access_timer) && when == d.access_timer_at) return;
  sim_.cancel(d.access_timer);
  d.access_timer = sim_.at(when, [this, di] { fire_access(di); });
  d.access_timer_at = when;
}

void Channel::fire_access(std::size_t di) {
  {
    ContentionDomain& d = domains_[di];
    if (d.busy_refs != 0 || d.contenders.empty()) return;

    std::uint32_t min_slots = d.contenders.front().slots;
    for (const Contender& c : d.contenders) {
      min_slots = std::min(min_slots, c.slots);
    }

    // Everyone burns min_slots; those at zero transmit (and may collide).
    std::vector<MacEntity*> winners;
    for (auto it = d.contenders.begin(); it != d.contenders.end();) {
      it->slots -= min_slots;
      if (it->slots == 0) {
        winners.push_back(it->node);
        it = d.contenders.erase(it);
      } else {
        ++it;
      }
    }
    // Slot countdown restarts after the upcoming busy period; anchor moves so
    // remaining contenders do not double-count the consumed slots.
    d.idle_anchor = sim_.now() - timing_.difs;

    access_grants_ += winners.size();
    // The grants may transmit — which re-enters the domain table (busy
    // accounting, even creating domains and reallocating domains_) — so the
    // reference above dies with this scope.
    for (MacEntity* w : winners) w->access_granted();
  }

  // If a winner decided not to transmit (empty queue race), the domain may
  // still be idle: re-arm the timer for the remaining contenders.
  if (domains_[di].busy_refs == 0) schedule_access_timer(di);
}

}  // namespace wlan::sim
