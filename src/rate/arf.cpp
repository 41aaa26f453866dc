#include "rate/arf.hpp"

#include <algorithm>

namespace wlan::rate {

TxPlan Arf::plan(const TxContext& /*ctx*/) { return TxPlan::single(rate_); }

void Arf::on_tx_outcome(const TxFeedback& fb) {
  if (fb.success) {
    failures_ = 0;
    probing_ = false;
    if (++successes_ >= up_threshold_) {
      successes_ = 0;
      if (rate_ != phy::Rate::kR11) {
        rate_ = phy::next_higher(rate_);
        probing_ = true;  // first frame at the new rate is a probe
      }
    }
    return;
  }
  successes_ = 0;
  // A failed probe falls straight back down (classic ARF) and lengthens the
  // next success train up to the ceiling (AARF).
  if (probing_) {
    probing_ = false;
    rate_ = phy::next_lower(rate_);
    up_threshold_ = std::min(2 * up_threshold_, up_ceiling_);
    failures_ = 0;
    return;
  }
  if (++failures_ >= kDownThreshold) {
    failures_ = 0;
    rate_ = phy::next_lower(rate_);
    up_threshold_ = kUpThreshold;  // fresh operating point
  }
}

}  // namespace wlan::rate
