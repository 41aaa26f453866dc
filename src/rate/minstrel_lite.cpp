#include "rate/minstrel_lite.hpp"

#include "obs/metrics.hpp"
#include "phy/airtime.hpp"

namespace wlan::rate {

MinstrelLite::MinstrelLite(std::uint64_t stream_seed) : rng_(stream_seed) {
  frames_until_probe_ =
      1 + static_cast<std::uint32_t>(rng_.uniform(2 * kProbeInterval));
}

double MinstrelLite::score(phy::Rate r, std::uint32_t payload_bytes) const {
  // Expected goodput proxy: EWMA success probability times payload bits
  // per microsecond of airtime at this rate.  Per-controller doubles, no
  // cross-thread accumulation — deterministic for a fixed feedback stream.
  const std::uint32_t bytes = payload_bytes == 0 ? 1024 : payload_bytes;
  const auto air = static_cast<double>(phy::data_airtime(bytes, r).count());
  return stats_[phy::rate_index(r)].ewma * (8.0 * bytes) / air;
}

TxPlan MinstrelLite::plan(const TxContext& ctx) {
  // Throughput-ordered chain: best, runner-up, then the 1 Mbps anchor.
  // Ties break toward the higher rate (ascending scan with >=), so a fresh
  // controller — all EWMAs at the optimistic 1.0 — starts at 11 Mbps.
  phy::Rate best = phy::Rate::kR1;
  double best_score = -1.0;
  for (phy::Rate r : phy::kAllRates) {
    const double s = score(r, ctx.payload_bytes);
    if (s >= best_score) {
      best = r;
      best_score = s;
    }
  }
  phy::Rate second = phy::Rate::kR1;
  double second_score = -1.0;
  for (phy::Rate r : phy::kAllRates) {
    if (r == best) continue;
    const double s = score(r, ctx.payload_bytes);
    if (s >= second_score) {
      second = r;
      second_score = s;
    }
  }

  TxPlan p;
  if (frames_until_probe_ > 0) --frames_until_probe_;
  if (frames_until_probe_ == 0) {
    // Probe a non-best rate for one attempt, round-robin over the ladder,
    // then draw the next gap from the controller's own stream.
    phy::Rate probe = best;
    while (probe == best) {
      probe = phy::kAllRates[probe_cursor_ % phy::kNumRates];
      ++probe_cursor_;
    }
    frames_until_probe_ =
        1 + static_cast<std::uint32_t>(rng_.uniform(2 * kProbeInterval));
    p.push(probe, 1);
    obs::count(obs::Id::kRateProbePlans);
  }
  p.push(best, kStageAttempts);
  p.push(second, kStageAttempts);
  p.push(phy::Rate::kR1, kStageAttempts);
  return p;
}

void MinstrelLite::on_tx_outcome(const TxFeedback& fb) {
  RateStat& s = stats_[phy::rate_index(fb.rate)];
  ++s.attempts;
  if (fb.success) ++s.success;
}

void MinstrelLite::on_tick(Microseconds now) {
  if (!window_armed_) {
    // Lazily anchor the first window to the first planned frame, so idle
    // time before traffic starts does not decay anything.
    window_end_ = now + kWindow;
    window_armed_ = true;
    return;
  }
  while (now >= window_end_) {
    roll_window();
    window_end_ += kWindow;
  }
}

void MinstrelLite::roll_window() {
  for (RateStat& s : stats_) {
    if (s.attempts > 0) {
      const double p =
          static_cast<double>(s.success) / static_cast<double>(s.attempts);
      s.ewma = kEwmaAlpha * p + (1.0 - kEwmaAlpha) * s.ewma;
    }
    s.attempts = 0;
    s.success = 0;
  }
  obs::count(obs::Id::kRateWindowRolls);
}

}  // namespace wlan::rate
