#include "workload/churn.hpp"

#include <algorithm>
#include <cmath>

namespace wlan::workload {

namespace {

/// `now` plus `s` seconds, truncated to the clock's microseconds;
/// Microseconds::never() when the sum does not fit the clock (the gap of
/// a vanishing arrival rate, an astronomically long dwell), so the time
/// lands past any horizon instead of wrapping into the past.
Microseconds after_seconds(Microseconds now, double s) {
  const double us = s * 1e6;
  if (!(us < 0x1p63)) return Microseconds::never();  // also catches NaN
  const auto d = static_cast<std::int64_t>(us);
  if (d >= Microseconds::never().count() - now.count()) {
    return Microseconds::never();
  }
  return now + Microseconds{d};
}

}  // namespace

ChurnProcess::ChurnProcess(sim::Network& net, ChurnConfig config,
                           Microseconds horizon)
    : net_(net), config_(std::move(config)), horizon_(horizon),
      arrival_rng_(util::mix_seed(config_.seed, 0)) {
  schedule_next_arrival();
}

phy::Position ChurnProcess::draw_position(util::Rng& rng) {
  if (config_.placement) return config_.placement(rng);
  return {rng.uniform_real(0, 30), rng.uniform_real(0, 30), 0};
}

void ChurnProcess::schedule_next_arrival() {
  if (config_.arrivals_per_s <= 0.0) return;
  const double gap_s = arrival_rng_.exponential(1.0 / config_.arrivals_per_s);
  const Microseconds at = after_seconds(net_.simulator().now(), gap_s);
  if (at > horizon_) return;  // venue closes; nobody new walks in
  net_.simulator().at(at, [this] { arrive(); });
}

void ChurnProcess::arrive() {
  const std::size_t index = members_.size();
  const std::uint64_t base = config_.seed;
  Member m;
  m.rng = util::Rng(util::mix_seed(base, 2 * index + 2));

  // Lognormal dwell with mean dwell_mean_s: exp(N(mu, sigma)) has mean
  // exp(mu + sigma^2/2), so mu = ln(mean) - sigma^2/2.
  const double sigma = std::max(0.0, config_.dwell_sigma);
  const double mu =
      std::log(std::max(1e-3, config_.dwell_mean_s)) - 0.5 * sigma * sigma;
  const double dwell_s = std::exp(m.rng.normal(mu, sigma));

  const Microseconds now = net_.simulator().now();
  m.leave = after_seconds(now, dwell_s);  // never(): stays past the run

  UserSpec spec;
  spec.position = draw_position(m.rng);
  spec.join = now;
  spec.leave = m.leave;
  spec.profile = config_.profile;
  spec.use_rtscts = m.rng.chance(config_.rtscts_fraction);
  spec.rate = config_.rate;
  spec.remove_on_depart = true;
  m.session = std::make_unique<UserSession>(net_, spec,
                                            util::mix_seed(base, 2 * index + 1));
  members_.push_back(std::move(m));

  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  if (members_.back().leave != Microseconds::never()) {
    net_.simulator().at(members_.back().leave, [this] {
      if (live_ > 0) --live_;
    });
  }

  schedule_mobility(index);
  schedule_next_arrival();
}

void ChurnProcess::schedule_mobility(std::size_t index) {
  if (config_.roam_check_mean_s <= 0.0) return;
  Member& m = members_[index];
  const double gap_s = m.rng.exponential(config_.roam_check_mean_s);
  const Microseconds at = after_seconds(net_.simulator().now(), gap_s);
  if (at >= m.leave || at > horizon_) return;
  net_.simulator().at(at, [this, index] { mobility_check(index); });
}

void ChurnProcess::mobility_check(std::size_t index) {
  Member& m = members_[index];
  if (m.session->departed()) return;
  if (m.rng.chance(config_.move_probability)) {
    const phy::Position pos = draw_position(m.rng);
    // Count a move only when the session can actually execute it (it
    // refuses before its first association) — moves_/roams_ feed the
    // stress test's registration accounting and must not overstate.
    if (m.session->associated()) {
      ++moves_;
      if (m.session->relocate(pos, config_.roam_hysteresis_db)) ++roams_;
    }
  }
  schedule_mobility(index);
}

}  // namespace wlan::workload
