#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace wlan::sim {

Network::Network(const NetworkConfig& config)
    : prop_(config.propagation, config.seed),
      timing_(mac::timing_for(config.timing_profile)), rng_(config.seed),
      channel_numbers_(config.channels),
      ap_power_offset_db_(config.ap_power_offset_db),
      single_queue_(config.reference ==
                    EngineOptions::Reference::kSingleQueue),
      shards_(config.shards < 1 ? 1 : config.shards) {
  const std::size_t n = channel_numbers_.size();
  channels_.reserve(n);
  // Sized up front: Channels keep raw pointers into these.
  frame_counters_.resize(n);
  shard_ground_truth_.resize(n);
  shard_ground_truth_end_.resize(n);
  if (!single_queue_) {
    shard_sims_.reserve(n);
    shard_metrics_.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Simulator* sim = &sim_;
    if (!single_queue_) {
      shard_sims_.push_back(std::make_unique<Simulator>());
      sim = shard_sims_.back().get();
    }
    frame_counters_[i] = static_cast<std::uint64_t>(i) << 48;
    channels_.push_back(std::make_unique<Channel>(
        *sim, prop_, timing_, channel_numbers_[i], config.seed));
    channels_.back()->set_ground_truth(&shard_ground_truth_[i]);
    channels_.back()->set_ground_truth_end_times(&shard_ground_truth_end_[i]);
    channels_.back()->set_frame_counter(&frame_counters_[i]);
    channels_.back()->set_scalar_reception(
        config.reference == EngineOptions::Reference::kScalarReception);
  }
  if (!single_queue_) {
    sim_.queue().set_schedule_observer(&Network::observe_control_schedule,
                                       this);
  }
}

Network::~Network() { stop_workers(); }

void Network::observe_control_schedule(void* ctx, Microseconds /*at*/,
                                       std::uint64_t seq) {
  auto* net = static_cast<Network*>(ctx);
  // Control-lane closure: coupling events may only be scheduled from setup
  // or from other control events.  A shard event scheduling one would be a
  // cross-thread mutation of the control queue (TSan catches the release
  // build; this catches Debug with shards=1 too).
  assert(!net->in_parallel_phase_ &&
         "control-lane event scheduled from a shard event");
  std::vector<std::uint64_t> marks;
  marks.reserve(net->shard_sims_.size());
  for (const auto& s : net->shard_sims_) {
    marks.push_back(s->queue().next_seq());
  }
  net->watermarks_.emplace(seq, std::move(marks));
}

Channel& Network::channel(std::uint8_t number) {
  for (std::size_t i = 0; i < channel_numbers_.size(); ++i) {
    if (channel_numbers_[i] == number) return *channels_[i];
  }
  throw std::out_of_range("Network: channel not configured");
}

AccessPoint& Network::add_ap(const phy::Position& where,
                             std::uint8_t channel_no, int num_vaps,
                             std::uint32_t sense_mask) {
  StationConfig cfg;
  cfg.position = where;
  cfg.seed = rng_.next();
  cfg.queue_limit = 256;  // APs aggregate many flows
  cfg.tx_power_offset_db = ap_power_offset_db_;
  cfg.sense_mask = sense_mask;
  const mac::Addr radio = allocate_addr();
  std::vector<mac::Addr> vaps;
  vaps.reserve(static_cast<std::size_t>(num_vaps));
  for (int i = 0; i < num_vaps; ++i) vaps.push_back(allocate_addr());
  aps_.push_back(std::make_unique<AccessPoint>(channel(channel_no), radio,
                                               std::move(vaps), cfg));
  return *aps_.back();
}

Station& Network::add_station(std::uint8_t channel_no,
                              const StationConfig& config) {
  StationConfig cfg = config;
  if (cfg.seed == 1) cfg.seed = rng_.next();
  const mac::Addr addr =
      cfg.addr != mac::kNoAddr ? cfg.addr : allocate_addr();
  stations_.push_back(
      std::make_unique<Station>(channel(channel_no), addr, cfg));
  return *stations_.back();
}

mac::Addr Network::allocate_addr() {
  if (!free_addrs_.empty()) {
    const mac::Addr addr = free_addrs_.front();
    free_addrs_.pop_front();
    return addr;
  }
  if (next_addr_ >= mac::kNoAddr) {
    throw std::runtime_error(
        "Network: MAC address space exhausted (concurrent population "
        "exceeds the 16-bit model address range)");
  }
  return next_addr_++;
}

void Network::remove_station(Station* station) {
  obs::count(obs::Id::kStationsRemoved);
  const mac::Addr addr = station->addr();
  station->shutdown();  // idempotent; also re-cancels any re-armed timer
  station->channel().remove_node(station);
  const auto it =
      std::find_if(stations_.begin(), stations_.end(),
                   [&](const std::unique_ptr<Station>& s) {
                     return s.get() == station;
                   });
  if (it != stations_.end()) stations_.erase(it);
  // A relocating user keeps its MAC (the new station already owns `addr`);
  // only a fully vacated address goes back in the pool.
  const bool still_in_use =
      std::any_of(stations_.begin(), stations_.end(),
                  [&](const std::unique_ptr<Station>& s) {
                    return s->addr() == addr;
                  });
  if (!still_in_use) free_addrs_.push_back(addr);
}

Sniffer& Network::add_sniffer(const SnifferConfig& config) {
  SnifferConfig cfg = config;
  if (cfg.seed == 7) cfg.seed = rng_.next();
  sniffers_.push_back(std::make_unique<Sniffer>(
      cfg, static_cast<std::uint8_t>(sniffers_.size())));
  channel(cfg.channel).add_sniffer(sniffers_.back().get());
  return *sniffers_.back();
}

Network::ApChoice Network::choose_ap(const phy::Position& where) {
  ApChoice choice;
  double best_snr = -1e9;
  for (const auto& ap : aps_) {
    const double snr = prop_.snr_db(ap->position(), where);
    if (snr > best_snr) {
      best_snr = snr;
      choice.ap = ap.get();
    }
  }
  if (choice.ap) {
    choice.vap = choice.ap->least_loaded_vap();
    choice.channel = choice.ap->channel().number();
  }
  return choice;
}

void Network::run_for(Microseconds duration) {
  const Microseconds until = sim_.now() + duration;
  if (single_queue_) {
    // Reference mode: one totally-ordered queue, the pre-sharding engine.
    sim_.run_until(until);
  } else {
    // Watermark protocol.  Every control event captured, at its *schedule*
    // time, each shard queue's next_seq() (see observe_control_schedule).
    // A shard event precedes the control event in the single-queue total
    // order iff it was scheduled earlier at the same microsecond or lives
    // at an earlier microsecond — i.e. iff its (time, local seq) key is
    // below (control time, watermark).  So each phase runs every shard
    // exactly up to that key, then the control event runs serially; by
    // induction the per-lane projection of the single-queue schedule is
    // reproduced exactly, for any worker-thread count.
    for (;;) {
      const EventKey ck = sim_.queue().next_key();
      if (ck.at == Microseconds::never() || ck.at > until) break;
      const auto wit = watermarks_.find(ck.seq);
      assert(wit != watermarks_.end());
      const std::vector<std::uint64_t>* marks =
          wit != watermarks_.end() ? &wit->second : nullptr;
      if (marks != nullptr) {
        run_shard_phase(ck.at, marks);
        watermarks_.erase(wit);
      }
      sim_.run_one();
    }
    // No control events remain at or before `until`: drain the shards to
    // the deadline, then clamp the control clock onto it.
    run_shard_phase(until, nullptr);
    sim_.run_until(until);
  }
  merge_ground_truth();
}

void Network::run_one_shard(std::size_t i, Microseconds until,
                            const std::vector<std::uint64_t>* marks) {
  obs::MetricsScope scope(shard_metrics_[i]);
  if (marks != nullptr) {
    shard_sims_[i]->run_until_key(until, (*marks)[i]);
  } else {
    shard_sims_[i]->run_until(until);
  }
}

void Network::run_shard_phase(Microseconds until,
                              const std::vector<std::uint64_t>* marks) {
  const std::size_t n = shard_sims_.size();
  const auto want = static_cast<std::size_t>(shards_);
  const std::size_t w = want < n ? want : n;
  if (w <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one_shard(i, until, marks);
    return;
  }
  ensure_workers(w);
  std::unique_lock<std::mutex> lock(pool_mu_);
  phase_until_ = until;
  phase_marks_ = marks;
  phase_remaining_ = workers_.size();
  ++phase_id_;
  in_parallel_phase_ = true;
  pool_start_.notify_all();
  pool_done_.wait(lock, [this] { return phase_remaining_ == 0; });
  in_parallel_phase_ = false;
}

void Network::ensure_workers(std::size_t count) {
  if (workers_.size() == count) return;
  stop_workers();
  workers_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    workers_.emplace_back([this, t, count] { worker_loop(t, count); });
  }
}

void Network::worker_loop(std::size_t worker, std::size_t stride) {
  std::uint64_t seen = 0;
  for (;;) {
    Microseconds until{0};
    const std::vector<std::uint64_t>* marks = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_start_.wait(lock,
                       [&] { return pool_stop_ || phase_id_ != seen; });
      if (pool_stop_) return;
      seen = phase_id_;
      until = phase_until_;
      marks = phase_marks_;
    }
    for (std::size_t i = worker; i < shard_sims_.size(); i += stride) {
      run_one_shard(i, until, marks);
    }
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (--phase_remaining_ == 0) pool_done_.notify_one();
    }
  }
}

void Network::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_start_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  pool_stop_ = false;
}

void Network::merge_ground_truth() {
  // K-way merge on (end-of-air time, channel order, per-channel position).
  // Each staging buffer is already sorted by end time (append order), so a
  // linear scan for the minimum head suffices (K = 1..3 channels).  With
  // one channel this is a plain append — byte-for-byte the pre-sharding
  // log — and the order is a pure function of per-lane content, identical
  // across shard counts and between sharded and single_queue modes.
  const std::size_t n = channels_.size();
  std::vector<std::size_t> cursor(n, 0);
  for (;;) {
    std::size_t best = n;
    std::int64_t best_end = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (cursor[i] >= shard_ground_truth_[i].size()) continue;
      const std::int64_t end = shard_ground_truth_end_[i][cursor[i]];
      if (best == n || end < best_end) {
        best = i;
        best_end = end;
      }
    }
    if (best == n) break;
    ground_truth_.push_back(shard_ground_truth_[best][cursor[best]]);
    ++cursor[best];
  }
  for (std::size_t i = 0; i < n; ++i) {
    shard_ground_truth_[i].clear();
    shard_ground_truth_end_[i].clear();
  }
}

std::vector<trace::Trace> Network::sniffer_traces() const {
  std::vector<trace::Trace> traces;
  traces.reserve(sniffers_.size());
  for (const auto& s : sniffers_) traces.push_back(s->trace());
  return traces;
}

trace::Trace Network::merged_trace() const {
  return trace::merge_traces(sniffer_traces());
}

void Network::harvest_metrics(obs::Metrics& m) const {
  using obs::Id;
  m.add(Id::kEventsExecuted, sim_.events_executed());
  m.add(Id::kEventsScheduled, sim_.queue().scheduled());
  m.add(Id::kEventsCancelled, sim_.queue().cancelled());
  m.note_max(Id::kEventQueueDepthHw, sim_.queue().depth_high_water());
  m.note_max(Id::kEventQueueSlotPoolHw, sim_.queue().slot_pool_size());
  // Event-kernel sums are invariant across shard counts (the control/shard
  // queue split is structural, not thread-dependent); only the per-queue
  // high-water gauges differ between sharded and single_queue modes, which
  // the differential oracle exempts.
  for (const auto& s : shard_sims_) {
    m.add(Id::kEventsExecuted, s->events_executed());
    m.add(Id::kEventsScheduled, s->queue().scheduled());
    m.add(Id::kEventsCancelled, s->queue().cancelled());
    m.note_max(Id::kEventQueueDepthHw, s->queue().depth_high_water());
    m.note_max(Id::kEventQueueSlotPoolHw, s->queue().slot_pool_size());
  }
  // Per-shard registers, merged in channel (shard) order.
  for (const obs::Metrics& sm : shard_metrics_) m.merge(sm);
  for (const auto& ch : channels_) ch->harvest_metrics(m);
  for (const auto& s : sniffers_) {
    const SnifferStats& st = s->stats();
    m.add(Id::kSnifferFramesCaptured, st.captured);
    m.add(Id::kSnifferFramesMissed,
          st.missed_range + st.missed_error + st.missed_overload);
    const phy::FrameSuccessCache& fsc = s->frame_success_cache();
    m.add(Id::kFrameSuccessHits, fsc.hits());
    m.add(Id::kFrameSuccessEvals, fsc.evals());
    m.add(Id::kFrameSuccessSaturated, fsc.saturated());
    m.add(Id::kFrameSuccessResizes, fsc.resizes());
  }
}

void Network::harvest_delays(util::LogHistogram& queue_delay,
                             util::LogHistogram& service_delay) const {
  for (const auto& ch : channels_) {
    queue_delay.merge(ch->queue_delay_histogram());
    service_delay.merge(ch->service_delay_histogram());
  }
}

}  // namespace wlan::sim
