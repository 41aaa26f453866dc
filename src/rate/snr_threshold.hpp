// SNR-threshold rate selection (RBAR/OAR-flavoured).
//
// The paper's conclusion recommends exactly this family: pick the highest
// rate whose expected frame success probability at the observed SNR meets a
// target, so collision losses do not drag the rate down.
#pragma once

#include <array>

#include "rate/rate_controller.hpp"

namespace wlan::rate {

class SnrThreshold final : public RateController {
 public:
  /// Target frame success probability.
  static constexpr double kTarget = 0.9;
  /// Representative frame size for the thresholds, bytes.
  static constexpr std::uint32_t kFrameBytes = 1024;

  /// Thresholds derived from the PHY error model: minimum SNR at which a
  /// kFrameBytes frame succeeds with probability >= kTarget.
  SnrThreshold();

  TxPlan plan(const TxContext& ctx) override;
  void on_tx_outcome(const TxFeedback& /*fb*/) override {}

  [[nodiscard]] double threshold_db(phy::Rate r) const {
    return thresholds_[phy::rate_index(r)];
  }

 private:
  std::array<double, phy::kNumRates> thresholds_{};
  double last_known_snr_ = 25.0;  ///< optimistic until first measurement
};

}  // namespace wlan::rate
