#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>

#include "phy/airtime.hpp"

namespace wlan::sim {

namespace {

/// Threads that run the shard phases: min(shards, channels), at least 1;
/// the single-queue engine has no shard phases.
std::size_t phase_participants(const NetworkConfig& config) {
  if (config.reference == EngineOptions::Reference::kSingleQueue) return 1;
  const auto shards = static_cast<std::size_t>(std::max(config.shards, 1));
  return std::clamp<std::size_t>(config.channels.size(), 1, shards);
}

/// Polls a phase-gate wait makes before it parks on the futex.  A phase's
/// shard work is often tens of microseconds, less than a park and wake
/// costs, so the wait polls first.  Each poll yields the core rather than
/// spinning on `pause`, so with more threads than cores a descheduled
/// participant still gets to run.  Counted in polls, not time: src/ reads
/// no clock.
constexpr int kPollsBeforePark = 2048;

/// Waits until `done(word)` holds, and returns the value that satisfied it.
template <class Done>
std::uint32_t poll_then_park(const std::atomic<std::uint32_t>& word,
                             Done done) {
  std::uint32_t seen = word.load(std::memory_order_acquire);
  for (int polls = 0; !done(seen) && polls < kPollsBeforePark; ++polls) {
    std::this_thread::yield();
    seen = word.load(std::memory_order_acquire);
  }
  while (!done(seen)) {
    word.wait(seen, std::memory_order_acquire);
    seen = word.load(std::memory_order_acquire);
  }
  return seen;
}

}  // namespace

Network::Network(const NetworkConfig& config)
    : prop_(config.propagation, config.seed),
      timing_(mac::timing_for(config.timing_profile)), rng_(config.seed),
      channel_numbers_(config.channels),
      ap_power_offset_db_(config.ap_power_offset_db),
      single_queue_(config.reference ==
                    EngineOptions::Reference::kSingleQueue),
      participants_(phase_participants(config)),
      phase_errors_(participants_) {
  const std::size_t n = channel_numbers_.size();
  channels_.reserve(n);
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
    // Disjoint frame-id spaces: channel i numbers its frames from i << 48,
    // so ids are lane-local and channel 0 keeps the sequence 1, 2, 3, ...
    channels_.push_back(std::make_unique<Channel>(
        *sim, prop_, timing_, channel_numbers_[i], config.seed,
        static_cast<std::uint64_t>(i) << 48));
    channels_.back()->set_scalar_reception(
        config.reference == EngineOptions::Reference::kScalarReception);
    channels_.back()->set_keep_ground_truth(config.keep_ground_truth);
  }
  if (!single_queue_) {
    sim_.set_schedule_observer(&Network::observe_control_schedule, this);
  }
  workers_.reserve(participants_ - 1);
  for (std::size_t p = 1; p < participants_; ++p) {
    workers_.emplace_back([this, p] { worker_loop(p); });
  }
}

Network::~Network() {
  if (workers_.empty()) return;
  stop_ = true;
  phase_epoch_.fetch_add(1, std::memory_order_release);
  phase_epoch_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Network::observe_control_schedule(void* ctx, Microseconds /*at*/,
                                       std::uint64_t seq) {
  auto* net = static_cast<Network*>(ctx);
  // Control-lane closure: coupling events may only be scheduled from setup
  // or from other control events.  A shard event scheduling one would be a
  // cross-thread mutation of the control queue (TSan catches the release
  // build; this catches Debug at any shard count, shards=1 included).
  assert(!net->in_parallel_phase_ &&
         "control-lane event scheduled from a shard event");
  std::vector<std::uint64_t> marks;
  marks.reserve(net->shard_sims_.size());
  for (const auto& s : net->shard_sims_) {
    marks.push_back(s->next_seq());
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
  if (!cfg.seed) cfg.seed = rng_.next();
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
  station->shutdown();  // idempotent: a departed user's station is already down
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
  if (!cfg.seed) cfg.seed = rng_.next();
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
      const EventKey ck = sim_.next_key();
      if (ck.at == Microseconds::never() || ck.at > until) break;
      const auto wit = watermarks_.find(ck.seq);
      assert(wit != watermarks_.end());
      const std::vector<std::uint64_t>* marks =
          wit != watermarks_.end() ? &wit->second : nullptr;
      if (marks != nullptr) {
        run_shard_phase(ck.at, marks);
        watermarks_.erase(wit);
      }
      // Runs exactly the control event: it holds the earliest pending key,
      // and what it schedules at ck.at takes later sequence numbers.
      sim_.run_until_key(ck.at, ck.seq + 1);
    }
    // No control events remain at or before `until`: drain the shards to
    // the deadline, then clamp the control clock onto it.
    run_shard_phase(until, nullptr);
    sim_.run_until(until);
  }
}

void Network::run_shard_phase(Microseconds until,
                              const std::vector<std::uint64_t>* marks) {
  phase_until_ = until;
  phase_marks_ = marks;
  in_parallel_phase_ = true;
  if (!workers_.empty()) {
    pending_.store(static_cast<std::uint32_t>(workers_.size()),
                   std::memory_order_relaxed);
    phase_epoch_.fetch_add(1, std::memory_order_release);
    phase_epoch_.notify_all();
  }
  run_shards(0);
  if (!workers_.empty()) {
    poll_then_park(pending_, [](std::uint32_t left) { return left == 0; });
  }
  in_parallel_phase_ = false;
  // The lowest participant's throw wins; every slot is cleared for the next
  // phase.
  std::exception_ptr error;
  for (std::exception_ptr& e : phase_errors_) {
    if (!error) error = e;
    e = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void Network::run_shards(std::size_t participant) {
  try {
    for (std::size_t i = participant; i < shard_sims_.size();
         i += participants_) {
      obs::MetricsScope scope(shard_metrics_[i]);
      if (phase_marks_ != nullptr) {
        shard_sims_[i]->run_until_key(phase_until_, (*phase_marks_)[i]);
      } else {
        shard_sims_[i]->run_until(phase_until_);
      }
    }
  } catch (...) {
    // Held until the phase joins: a worker that threw past its decrement
    // would leave the driver waiting on pending_ forever.
    phase_errors_[participant] = std::current_exception();
  }
}

void Network::worker_loop(std::size_t participant) {
  // Starts from the constructor's epoch, not a fresh load: the first phase
  // (or the destructor) may bump it before this thread runs.  Epochs are
  // compared only for inequality, so wraparound is harmless.
  std::uint32_t epoch = 0;
  for (;;) {
    epoch = poll_then_park(
        phase_epoch_, [epoch](std::uint32_t now) { return now != epoch; });
    if (stop_) return;
    run_shards(participant);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

std::vector<trace::TxRecord> Network::ground_truth() const {
  // K-way merge on (end of air, channel index, position in the channel's
  // log).  Each log is in end-of-air order already (records are appended
  // at end of air), so a linear scan for the minimum head suffices (K is
  // 1..3).  A record's end of air is its start plus the airtime the channel
  // scheduled its end-of-air event with (Frame::airtime()).  The order is a
  // pure function of per-lane content, so it is the same for any shard
  // count and both engines; and a record logged by a later run_for call
  // ends strictly after every earlier call's horizon, so merging once here
  // gives the order merging at the end of every call would.
  const auto end_of_air = [](const trace::TxRecord& r) {
    return r.time_us + phy::raw_airtime(r.size_bytes, r.rate).count();
  };
  const std::size_t n = channels_.size();
  std::size_t total = 0;
  for (const auto& ch : channels_) total += ch->ground_truth().size();
  std::vector<trace::TxRecord> merged;
  merged.reserve(total);
  std::vector<std::size_t> cursor(n, 0);
  for (;;) {
    std::size_t best = n;
    std::int64_t best_end = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& log = channels_[i]->ground_truth();
      if (cursor[i] == log.size()) continue;
      const std::int64_t end = end_of_air(log[cursor[i]]);
      if (best == n || end < best_end) {
        best = i;
        best_end = end;
      }
    }
    if (best == n) break;
    merged.push_back(channels_[best]->ground_truth()[cursor[best]++]);
  }
  return merged;
}

std::vector<trace::Trace> Network::sniffer_traces() const {
  std::vector<trace::Trace> traces;
  traces.reserve(sniffers_.size());
  for (const auto& s : sniffers_) traces.push_back(s->trace());
  return traces;
}

void Network::harvest_metrics(obs::Metrics& m) const {
  using obs::Id;
  // Event-kernel sums are invariant across shard counts (the control/shard
  // queue split is structural, not thread-dependent); only the per-queue
  // high-water gauges differ between sharded and single_queue modes, which
  // the differential oracle exempts.
  sim_.harvest_metrics(m);
  for (const auto& s : shard_sims_) s->harvest_metrics(m);
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
