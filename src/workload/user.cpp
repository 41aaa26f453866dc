#include "workload/user.hpp"

#include <algorithm>
#include <utility>

#include "phy/error_model.hpp"

namespace wlan::workload {

using wlan::sim::Packet;

UserSession::UserSession(sim::Network& net, const UserSpec& spec,
                         std::uint64_t seed)
    : net_(net), spec_(spec), rng_(seed) {
  net_.simulator().at(spec_.join, [this] { join(); });
  if (spec_.leave != Microseconds::never()) {
    net_.simulator().at(spec_.leave, [this] { depart(); });
  }
}

void UserSession::join() {
  if (departed_) return;
  const auto choice = net_.choose_ap(spec_.position);
  if (!choice.ap) {
    net_.simulator().in(sec(1), [this] { join(); });
    return;
  }
  ap_ = choice.ap;
  vap_ = choice.vap;
  bring_up_station();
  associate();
}

void UserSession::bring_up_station(mac::Addr reuse_addr) {
  sim::StationConfig cfg;
  cfg.position = spec_.position;
  cfg.use_rtscts = spec_.use_rtscts;
  cfg.rate = spec_.rate;
  cfg.sense_mask = spec_.sense_mask;
  cfg.seed = rng_.next();
  cfg.addr = reuse_addr;
  if (spec_.auto_power_margin_db >= 0.0) {
    // Transmit power control: boost until 11 Mbps clears its SNR threshold
    // with the requested margin (paper §7's suggested remedy).
    const double snr = net_.propagation().snr_db(spec_.position,
                                                 ap_->position());
    const double needed = phy::required_snr_db(phy::Rate::kR11, 1024, 0.9) +
                          spec_.auto_power_margin_db;
    cfg.tx_power_offset_db =
        std::clamp(needed - snr, 0.0, kMaxPowerBoostDb);
  }
  station_ = &net_.add_station(ap_->channel().number(), cfg);
  station_->set_payload_handler(
      [this](const mac::Frame& f) { on_station_payload(f); });
}

void UserSession::retire_station(sim::AccessPoint* deregister_ap) {
  sim::Station* old = station_;
  station_ = nullptr;
  old->shutdown();
  if (spec_.remove_on_depart) {
    // Real teardown after a grace period (see Network::remove_station's
    // contract): pending SIFS responses and timeouts drain first, then the
    // radio unregisters and its link id recycles.  When the client is gone
    // from `deregister_ap` for good (departure / roam-away), that AP's
    // controller ages it out at the same moment — its Disassoc may have
    // been lost, and a roamer sends none.  Captures no session state: the
    // event is self-contained.
    sim::Network* net = &net_;
    const mac::Addr old_addr = old->addr();
    net_.simulator().in(msec(100), [this, net, old, deregister_ap, old_addr] {
      // Roam-back guard: if a mobility check brought the client back to
      // this very AP inside the grace window, it is legitimately
      // associated again — aging it out now would wipe that fresh
      // association.  Departure (ap_ == deregister_ap, departed_) still
      // ages out.
      if (deregister_ap && (departed_ || deregister_ap != ap_)) {
        deregister_ap->deregister_client(old_addr);
      }
      net->remove_station(old);
    });
  }
}

bool UserSession::relocate(const phy::Position& pos, double hysteresis_db) {
  if (departed_ || !station_ || !associated_) return false;

  // 802.11 roaming decision at the new position: stay with the current AP
  // inside the hysteresis band, switch to the strongest one outside it.
  bool roamed = false;
  sim::AccessPoint* next_ap = ap_;
  mac::Addr next_vap = vap_;
  const auto choice = net_.choose_ap(pos);
  if (choice.ap && choice.ap != ap_) {
    const double keep_snr = net_.propagation().snr_db(pos, ap_->position());
    const double best_snr =
        net_.propagation().snr_db(pos, choice.ap->position());
    if (best_snr - keep_snr > hysteresis_db) {
      next_ap = choice.ap;
      next_vap = choice.vap;
      roamed = true;
    }
  }

  // Kill the old station generation's traffic chains before the shutdown
  // below flushes its queue (completion callbacks re-arm closed-loop flows;
  // the epoch bump makes those re-arms no-ops).  The client keeps its MAC
  // across the move, so only a roam-away warrants aging it out of the old
  // AP — on a same-AP move that would wipe the imminent re-association.
  ++session_epoch_;
  // Under sharding the old channel's queue must not even *hold* chain
  // closures that touch this session while the new channel's events do —
  // cancel them here, on the control lane, before any parallel phase
  // resumes.
  cancel_chain_timers();
  const mac::Addr keep_addr = station_->addr();
  retire_station(roamed ? ap_ : nullptr);
  spec_.position = pos;
  ap_ = next_ap;
  vap_ = next_vap;

  associated_ = false;
  assoc_attempts_ = 0;
  bring_up_station(keep_addr);
  associate();
  return roamed;
}

void UserSession::associate() {
  if (departed_ || associated_) return;
  ++assoc_attempts_;
  Packet req;
  req.dst = vap_;
  req.type = mac::FrameType::kAssocReq;
  req.bssid = vap_;
  station_->enqueue(std::move(req));
  // Re-try a lost handshake; after several attempts proceed anyway so a
  // congested join cannot wedge the session forever.  Epoch-guarded like
  // every deferred chain: a retry armed before a relocation must not fold
  // into the fresh generation's handshake (it would double the AssocReq
  // cadence and double-count assoc_attempts_).
  net_.simulator().in(msec(500), [this, epoch = session_epoch_] {
    if (epoch != session_epoch_ || departed_ || associated_) return;
    if (assoc_attempts_ < 5) {
      associate();
    } else {
      associated_ = true;
      start_traffic();
    }
  });
}

void UserSession::on_station_payload(const mac::Frame& f) {
  if (f.type == mac::FrameType::kAssocResp && !associated_) {
    associated_ = true;
    start_traffic();
  }
  // Downlink data needs no action: reception statistics live in the trace.
}

void UserSession::start_traffic() {
  if (departed_) return;
  for (std::uint32_t w = 0; w < spec_.profile.window; ++w) {
    launch_flow(true);
    launch_flow(false);
  }
}

void UserSession::arm_chain_timer(Microseconds delay,
                                  sim::Simulator::Callback fn) {
  sim::Simulator& sim = station_->channel().simulator();
  if (chain_sim_ != &sim) {
    // First arm of a new station generation (the previous generation's
    // timers were cancelled at relocation/departure, so the list is dead).
    chain_timers_.clear();
    chain_sim_ = &sim;
  }
  // Prune fired ids so the list stays bounded by the handful of
  // concurrently-armed chains — without this, one think timer per packet
  // accumulates for the life of the station generation.
  if (chain_timers_.size() >= 16) {
    std::erase_if(chain_timers_, [&sim](sim::EventId id) {
      return !sim.live(id);
    });
  }
  chain_timers_.push_back(sim.in(delay, std::move(fn)));
}

void UserSession::cancel_chain_timers() {
  if (chain_sim_ != nullptr) {
    for (sim::EventId id : chain_timers_) chain_sim_->cancel(id);
  }
  chain_timers_.clear();
}

void UserSession::launch_flow(bool uplink) {
  if (departed_ || !station_) return;
  const double share = uplink ? spec_.profile.uplink_fraction
                              : 1.0 - spec_.profile.uplink_fraction;
  if (share <= 0.0) return;
  const double think_s = rng_.exponential(1.0 / (spec_.profile.mean_pps * share));
  arm_chain_timer(Microseconds{static_cast<std::int64_t>(think_s * 1e6)},
                  [this, uplink] { send_closed_loop(uplink); });
}

void UserSession::send_closed_loop(bool uplink) {
  if (departed_) return;
  Packet p;
  p.payload = sample_payload(spec_.profile, rng_);
  p.type = mac::FrameType::kData;
  p.bssid = vap_;
  p.on_complete = [this, uplink, epoch = session_epoch_](bool) {
    if (epoch == session_epoch_) launch_flow(uplink);
  };
  if (uplink) {
    p.dst = vap_;
    station_->enqueue(std::move(p));
  } else {
    p.dst = station_->addr();
    ap_->enqueue(std::move(p));
  }
}

void UserSession::depart() {
  if (departed_ || !station_) {
    departed_ = true;
    return;
  }
  departed_ = true;
  ++session_epoch_;
  cancel_chain_timers();  // see relocate(): stale closures must not linger
  Packet bye;
  bye.dst = vap_;
  bye.type = mac::FrameType::kDisassoc;
  bye.bssid = vap_;
  station_->enqueue(std::move(bye));
  // Give the disassoc a moment on the air, then power the radio off — and,
  // for churn sessions, retire it for real (link id recycled, memory freed).
  net_.simulator().in(msec(100), [this] {
    if (station_) {
      if (spec_.remove_on_depart) {
        retire_station(ap_);  // shuts down now, removes after its own grace
      } else {
        station_->shutdown();
      }
    }
  });
}

UserManager::UserManager(sim::Network& net, UserManagerConfig config,
                         PopulationCurve curve, Microseconds horizon)
    : net_(net), config_(std::move(config)), curve_(std::move(curve)),
      horizon_(horizon), rng_(net.rng().next()) {
  tick();
}

std::size_t UserManager::live() const {
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(),
                    [](const auto& s) { return !s->departed(); }));
}

void UserManager::tick() {
  const Microseconds now = net_.simulator().now();
  if (now > horizon_) return;

  const auto desired =
      static_cast<std::size_t>(std::max(0.0, curve_(now.seconds())));
  const std::size_t current = live();

  if (desired > current) {
    for (std::size_t i = current; i < desired; ++i) {
      UserSpec spec;
      spec.position = config_.placement
                          ? config_.placement(rng_)
                          : phy::Position{rng_.uniform_real(0, 30),
                                          rng_.uniform_real(0, 30), 0};
      spec.join = now;
      spec.profile = config_.profile;
      spec.use_rtscts = rng_.chance(config_.rtscts_fraction);
      spec.rate = config_.rate;
      sessions_.push_back(
          std::make_unique<UserSession>(net_, spec, rng_.next()));
    }
  } else if (desired < current) {
    std::size_t to_remove = current - desired;
    for (auto& s : sessions_) {
      if (to_remove == 0) break;
      if (!s->departed()) {
        s->depart();
        --to_remove;
      }
    }
  }

  // The population curve is sampled once per simulated second.
  net_.simulator().in(sec(1), [this] { tick(); });
}

}  // namespace wlan::workload
