#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace wlan::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// The cell fixtures' square side, metres.  Large enough that edge users
/// have marginal SNR and rate adaptation genuinely exercises the lower
/// rates (the ballroom was ~64 m wide).
constexpr double kRoomM = 70.0;

sim::NetworkConfig network_config(const ScenarioConfig& cfg,
                                  SessionKind kind) {
  sim::NetworkConfig net;
  static_cast<sim::EngineOptions&>(net) = cfg;
  net.seed = cfg.seed;
  net.timing_profile = cfg.timing;
  net.channels = {1, 6, 11};
  // Indoor conference hall: moderate exponent, mild shadowing.  The packed
  // plenary ballroom (hundreds of bodies) attenuates noticeably harder,
  // which is what pushes its fringe links down the rate ladder and its
  // measured utilization toward the paper's ~86% mode.
  net.propagation.path_loss_exponent =
      kind == SessionKind::kPlenary ? 3.8 : 3.0;
  net.propagation.shadowing_sigma_db =
      kind == SessionKind::kPlenary ? 6.0 : 4.0;
  return net;
}

/// The cell fixtures' network: the one cell channel and its propagation.
sim::NetworkConfig cell_network_config(const CellConfig& config) {
  sim::NetworkConfig net;
  static_cast<sim::EngineOptions&>(net) = config;
  net.seed = config.seed;
  net.timing_profile = config.timing;
  net.channels = {config.channel};
  net.propagation.path_loss_exponent = config.path_loss_exponent;
  net.propagation.shadowing_sigma_db = config.shadowing_sigma_db;
  return net;
}

/// Runs a built cell fixture for the configured duration and reduces it to
/// a CellResult, warmup removed.  One sniffer's capture is used as recorded.
/// Several go through the paper's pipeline: beacon-anchored clock
/// correction and a deduplicated k-way merge, whose timeline is in sniffer
/// 0's clock — zero offset here, so the warmup trim stays exact.
CellResult run_and_harvest_cell(sim::Network& net, const CellConfig& config,
                                const char* span_name) {
  const auto end_us = static_cast<std::int64_t>(config.duration_s * 1e6);
  {
    obs::Span span(span_name);
    net.run_for(Microseconds{end_us});
  }
  if (obs::Metrics* m = obs::current()) net.harvest_metrics(*m);

  CellResult result;
  const auto warmup_us = static_cast<std::int64_t>(config.warmup_s * 1e6);
  const auto keep_after_warmup = [warmup_us](const auto& from, auto& to) {
    to.reserve(from.size());
    for (const auto& r : from) {
      if (r.time_us >= warmup_us) to.push_back(r);
    }
  };
  const sim::Sniffer& sniffer0 = *net.sniffers().front();
  if (net.sniffers().size() == 1) {
    keep_after_warmup(sniffer0.trace().records, result.trace.records);
  } else {
    result.sniffer_traces = net.sniffer_traces();
    trace::MergeResult merged =
        trace::merge_sniffer_traces(result.sniffer_traces);
    result.clock_offsets = std::move(merged.offsets);
    result.merge_stats = merged.stats;
    keep_after_warmup(merged.trace.records, result.trace.records);
  }
  result.trace.start_us = warmup_us;
  result.trace.end_us = end_us;
  keep_after_warmup(net.channel(config.channel).ground_truth(),
                    result.ground_truth);
  result.medium_transmissions = net.channel(config.channel).transmissions();
  result.medium_collisions = net.channel(config.channel).collisions();
  result.sniffer = sniffer0.stats();
  result.duration_s = config.duration_s - config.warmup_s;
  net.harvest_delays(result.queue_delay, result.service_delay);
  obs::count(obs::Id::kTraceRecords, result.trace.records.size());
  return result;
}

}  // namespace

/// Spawns APs/sniffers per the floor plan and wires population dynamics.
Scenario Scenario::build(const ScenarioConfig& cfg, SessionKind kind) {
  const double scale = std::clamp(cfg.scale, 0.02, 1.0);
  const int main_aps = std::max(2, static_cast<int>(std::lround(23 * scale)));
  const int other_aps = std::max(1, static_cast<int>(std::lround(15 * scale)));
  const double peak_users =
      std::max(6.0, (kind == SessionKind::kDay ? 523.0 : 325.0) * scale);

  Scenario s;
  s.name_ = kind == SessionKind::kDay ? "day" : "plenary";
  s.plan_ = ietf_floorplan(kind, main_aps, other_aps);
  s.duration_ = Microseconds{static_cast<std::int64_t>(cfg.duration_s * 1e6)};
  s.net_ = std::make_unique<sim::Network>(network_config(cfg, kind));

  for (const ApPlacement& ap : s.plan_.aps) {
    s.net_->add_ap(ap.position, ap.channel).start_beacons();
  }
  for (std::size_t i = 0; i < s.plan_.sniffers.size(); ++i) {
    sim::SnifferConfig sniff;
    sniff.position = s.plan_.sniffers[i];
    sniff.channel = s.net_->channel_numbers()[i % 3];
    sniff.capacity_fps = 1500.0;
    s.net_->add_sniffer(sniff);
  }

  // Population curves (paper Figure 4b):
  //  * day — fast ramp to a plateau that wobbles around the peak (parallel
  //    tracks in session, people moving between rooms);
  //  * plenary — ramp up as the meeting starts, hold, slow decline near the
  //    end as attendees trickle out.
  const double T = cfg.duration_s;
  PopulationCurve curve;
  if (kind == SessionKind::kDay) {
    curve = [peak_users, T](double t) {
      const double ramp = std::min(1.0, t / (0.12 * T));
      const double wobble = 0.85 + 0.15 * std::sin(2.0 * kPi * t / (0.45 * T));
      return peak_users * ramp * wobble;
    };
  } else {
    curve = [peak_users, T](double t) {
      const double ramp = std::min(1.0, t / (0.18 * T));
      const double tail = t > 0.75 * T ? 1.0 - 0.7 * (t - 0.75 * T) / (0.25 * T)
                                       : 1.0;
      return peak_users * ramp * tail;
    };
  }

  // Day: 40% of users in the monitored room, rest spread over the venue.
  // Plenary: everyone in the combined ballroom.  The plan is captured by
  // value: the Scenario object is moved on return.
  const FloorPlan plan = s.plan_;
  std::function<phy::Position(util::Rng&)> placement;
  if (kind == SessionKind::kDay) {
    placement = [plan](util::Rng& rng) {
      if (rng.chance(0.4)) {
        return random_position_in(plan.rooms[plan.monitored_room], rng);
      }
      const auto idx = rng.uniform(plan.rooms.size());
      return random_position_in(plan.rooms[idx], rng);
    };
  } else {
    placement = [plan](util::Rng& rng) {
      return random_position_in(plan.rooms[plan.monitored_room], rng);
    };
  }

  if (cfg.churn_turnover_per_min > 0.0) {
    // Dynamic population: Poisson arrivals sized so the steady-state
    // attendance (Little's law: rate x mean dwell) matches the scaled peak,
    // with the turnover knob trading dwell against arrival rate at constant
    // expected load.  Seed stream is split off the scenario seed so the
    // network/AP draws stay untouched.
    ChurnConfig churn;
    churn.seed = util::mix_seed(cfg.seed, 0xC4u);
    churn.arrivals_per_s = cfg.churn_turnover_per_min * peak_users / 60.0;
    churn.dwell_mean_s = 60.0 / cfg.churn_turnover_per_min;
    churn.roam_check_mean_s = cfg.churn_roam_mean_s;
    churn.move_probability = cfg.churn_move_probability;
    churn.profile = cfg.profile;
    churn.rtscts_fraction = cfg.rtscts_fraction;
    churn.rate = cfg.rate;
    churn.placement = std::move(placement);
    s.churn_ = std::make_unique<ChurnProcess>(*s.net_, std::move(churn),
                                              s.duration_);
    return s;
  }

  UserManagerConfig users;
  users.profile = cfg.profile;
  users.rtscts_fraction = cfg.rtscts_fraction;
  users.rate = cfg.rate;
  users.placement = std::move(placement);

  s.users_ = std::make_unique<UserManager>(*s.net_, std::move(users),
                                           std::move(curve), s.duration_);
  return s;
}

Scenario Scenario::day(const ScenarioConfig& config) {
  return build(config, SessionKind::kDay);
}

Scenario Scenario::plenary(const ScenarioConfig& config) {
  return build(config, SessionKind::kPlenary);
}

void Scenario::run() { net_->run_for(duration_); }

void Scenario::harvest_metrics(obs::Metrics& m) const {
  net_->harvest_metrics(m);
  if (churn_) {
    m.add(obs::Id::kChurnArrivals, churn_->arrivals());
    m.add(obs::Id::kChurnRoams, churn_->roams());
    m.add(obs::Id::kChurnMoves, churn_->moves());
    m.note_max(obs::Id::kChurnPeakLive, churn_->peak_live());
  }
}

std::vector<DataSetInfo> Scenario::table1() {
  return {
      {"Day", "March 9 2005", {1, 6, 11}, "11:53-17:30 hrs"},
      {"Plenary", "March 10 2005", {1, 6, 11}, "19:30-22:30 hrs"},
  };
}

CellResult run_cell(const CellConfig& config) {
  sim::Network net(cell_network_config(config));
  util::Rng rng(config.seed ^ 0xCE11ULL);

  // APs along the cell diagonal, all VAPs on the one channel.
  std::vector<sim::AccessPoint*> aps;
  for (int i = 0; i < config.num_aps; ++i) {
    const double frac = (i + 1.0) / (config.num_aps + 1.0);
    auto& ap = net.add_ap({kRoomM * frac, kRoomM * frac, 0}, config.channel);
    ap.start_beacons();
    aps.push_back(&ap);
  }

  // Sniffer 0 keeps the historic center spot (and, for the single-sniffer
  // fixture, the historic default-seed path, so existing runs reproduce
  // byte-for-byte).  Extras fan out along the AP diagonal with skewed
  // clocks, which the merge must recover from beacon anchors.
  const int num_sniffers = std::max(1, config.num_sniffers);
  for (int j = 0; j < num_sniffers; ++j) {
    sim::SnifferConfig sniff;
    const double mid = kRoomM / 2;
    const double step = 0.15 * kRoomM * ((j + 1) / 2);
    const double sign = j % 2 == 1 ? -1.0 : 1.0;
    sniff.position = {mid + sign * step, mid + sign * step, 0};
    sniff.channel = config.channel;
    sniff.capacity_fps = config.sniffer_capacity_fps;
    if (num_sniffers > 1) {
      sniff.seed = util::mix_seed(config.seed ^ 0x5A1FFULL,
                                  static_cast<std::uint64_t>(j));
      sniff.clock_offset_us = j * config.sniffer_clock_skew_us;
    }
    net.add_sniffer(sniff);
  }

  TrafficProfile profile = config.profile;
  profile.mean_pps = config.per_user_pps;

  std::vector<std::unique_ptr<UserSession>> sessions;
  for (int i = 0; i < config.num_users; ++i) {
    UserSpec spec;
    if (rng.chance(config.far_fraction)) {
      // Weak-link zone: the two corners orthogonal to the AP diagonal, well
      // away from every AP, where rate adaptation genuinely lands on the
      // low rates.
      const double cx = rng.chance(0.5) ? 0.91 * kRoomM : 0.09 * kRoomM;
      const double cy = kRoomM - cx;
      spec.position = {cx + rng.uniform_real(-5.0, 5.0),
                       cy + rng.uniform_real(-5.0, 5.0), 0};
    } else {
      // Near an AP: strong links that hold 11 Mbps.
      const double frac =
          (rng.uniform(static_cast<std::uint64_t>(config.num_aps)) + 1.0) /
          (config.num_aps + 1.0);
      const phy::Position ap{kRoomM * frac, kRoomM * frac, 0};
      spec.position = {ap.x + rng.uniform_real(-12.0, 12.0),
                       ap.y + rng.uniform_real(-12.0, 12.0), 0};
    }
    // Stagger joins across the first second to avoid an association storm.
    spec.join = Microseconds{static_cast<std::int64_t>(
        rng.uniform_real(0.0, 1.0) * 1e6)};
    spec.profile = profile;
    spec.use_rtscts = rng.chance(config.rtscts_fraction);
    spec.rate = config.rate;
    spec.auto_power_margin_db = config.auto_power_margin_db;
    sessions.push_back(std::make_unique<UserSession>(net, spec, rng.next()));
  }

  return run_and_harvest_cell(net, config, "cell: run");
}

CellResult run_hidden_terminal(const CellConfig& config) {
  sim::Network net(cell_network_config(config));
  util::Rng rng(config.seed ^ 0x41DDE4ULL);

  // One AP in the middle; its carrier sense spans both wings.
  const double mid = kRoomM / 2;
  auto& ap = net.add_ap({mid, mid, 0}, config.channel, 4, 0b11u);
  ap.start_beacons();

  sim::SnifferConfig sniff;
  sniff.position = {mid, mid, 0};
  sniff.channel = config.channel;
  sniff.capacity_fps = config.sniffer_capacity_fps;
  net.add_sniffer(sniff);

  TrafficProfile profile = config.profile;
  profile.mean_pps = config.per_user_pps;

  // Two wings along the diagonal, each well inside the AP's range but
  // shadowed from the other (masks 0b01 / 0b10 make that structural rather
  // than a fragile function of the propagation draw).  Alternating
  // assignment keeps the split deterministic and balanced.
  std::vector<std::unique_ptr<UserSession>> sessions;
  for (int i = 0; i < config.num_users; ++i) {
    const bool east = i % 2 == 0;
    const double cx = east ? 0.75 * kRoomM : 0.25 * kRoomM;
    UserSpec spec;
    spec.position = {cx + rng.uniform_real(-5.0, 5.0),
                     cx + rng.uniform_real(-5.0, 5.0), 0};
    spec.sense_mask = east ? 0b01u : 0b10u;
    spec.join = Microseconds{static_cast<std::int64_t>(
        rng.uniform_real(0.0, 1.0) * 1e6)};
    spec.profile = profile;
    spec.use_rtscts = rng.chance(config.rtscts_fraction);
    spec.rate = config.rate;
    spec.auto_power_margin_db = config.auto_power_margin_db;
    sessions.push_back(std::make_unique<UserSession>(net, spec, rng.next()));
  }

  return run_and_harvest_cell(net, config, "hidden-terminal: run");
}

}  // namespace wlan::workload
