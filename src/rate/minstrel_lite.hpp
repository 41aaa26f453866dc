// MinstrelLite — a compact Minstrel/SampleRate-family controller, the
// retry-chain policy the paper's §6 analysis motivates: instead of reacting
// to individual losses (which under congestion are mostly collisions), keep
// EWMA per-rate success statistics over fixed windows, order the retry
// chain by expected throughput, and keep the statistics fresh with a
// low-duty probe schedule.
//
// Determinism: the only randomness is the probe-gap draw, taken from the
// controller's own Rng seeded with the factory's stream_seed — the MAC's
// RNG stream is never touched, and windows fold on simulated time via
// on_tick(), so runs are pure functions of (seed, config).
#pragma once

#include <array>

#include "rate/rate_controller.hpp"
#include "util/rng.hpp"

namespace wlan::rate {

class MinstrelLite final : public RateController {
 public:
  /// EWMA weight of the newest window's success ratio.
  static constexpr double kEwmaAlpha = 0.25;
  /// Statistics window folded by on_tick().
  static constexpr Microseconds kWindow{100'000};
  /// Mean frames between probe plans: the actual gap is drawn uniformly
  /// from [1, 2 * kProbeInterval] on the controller's own seeded stream,
  /// so probes never synchronize across stations.
  static constexpr std::uint32_t kProbeInterval = 16;
  /// Attempt budget per retry-chain stage.
  static constexpr std::uint8_t kStageAttempts = 4;

  explicit MinstrelLite(std::uint64_t stream_seed);

  TxPlan plan(const TxContext& ctx) override;
  void on_tx_outcome(const TxFeedback& fb) override;
  void on_tick(Microseconds now) override;

  /// Test hooks: current EWMA success estimate and in-window tallies.
  [[nodiscard]] double ewma(phy::Rate r) const {
    return stats_[phy::rate_index(r)].ewma;
  }
  [[nodiscard]] std::uint64_t window_attempts(phy::Rate r) const {
    return stats_[phy::rate_index(r)].attempts;
  }

 private:
  struct RateStat {
    std::uint64_t attempts = 0;  ///< in the current window
    std::uint64_t success = 0;   ///< in the current window
    double ewma = 1.0;           ///< optimistic until measured
  };

  void roll_window();
  [[nodiscard]] double score(phy::Rate r, std::uint32_t payload_bytes) const;

  std::array<RateStat, phy::kNumRates> stats_{};
  Microseconds window_end_{0};
  bool window_armed_ = false;
  std::uint32_t frames_until_probe_;
  std::size_t probe_cursor_ = 0;
  util::Rng rng_;
};

}  // namespace wlan::rate
