// Auto Rate Fallback (Kamerman & Monteban, WaveLAN-II) — the "generic ARF"
// the paper describes: drop the rate after consecutive failures, probe one
// rate up after a train of successes.  Plans are single-attempt, so the MAC
// re-plans (and ARF re-decides) before every retry, exactly the classic
// per-attempt behavior.
//
// Adaptive ARF (Lacage et al., 2004) is the same machine with an adaptive
// train: a failed upward probe doubles the success train required before
// the next probe, up to a ceiling, which damps the oscillation ARF exhibits
// at a stable operating point; a regular drop resets the train to its
// floor.  The ceiling is the only difference between the two: ARF's equals
// the floor, so a failed probe never lengthens its train.
#pragma once

#include "rate/rate_controller.hpp"

namespace wlan::rate {

class Arf final : public RateController {
 public:
  /// Successes needed to probe one rate up: the success train's floor.
  static constexpr std::uint32_t kUpThreshold = 10;
  /// Consecutive failures that force one rate down.
  static constexpr std::uint32_t kDownThreshold = 2;
  /// Success-train ceilings of the two registered configurations.
  static constexpr std::uint32_t kArfCeiling = kUpThreshold;
  static constexpr std::uint32_t kAarfCeiling = 50;

  /// `up_ceiling` is at least kUpThreshold.
  explicit Arf(std::uint32_t up_ceiling) : up_ceiling_(up_ceiling) {}

  TxPlan plan(const TxContext& ctx) override;
  void on_tx_outcome(const TxFeedback& fb) override;

 private:
  std::uint32_t up_ceiling_;
  std::uint32_t up_threshold_ = kUpThreshold;
  phy::Rate rate_ = phy::Rate::kR11;
  std::uint32_t successes_ = 0;
  std::uint32_t failures_ = 0;
  bool probing_ = false;  ///< the next frame is the post-upgrade probe
};

}  // namespace wlan::rate
