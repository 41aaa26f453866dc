// Fixed-rate controller — the "no adaptation" baseline for the ablation the
// paper's conclusion argues for (§7: under congestion, staying at a high
// rate beats ARF-style downshifting because losses are collisions, not
// channel errors).
#pragma once

#include "rate/rate_controller.hpp"

namespace wlan::rate {

class Fixed final : public RateController {
 public:
  explicit Fixed(phy::Rate rate) : rate_(rate) {}

  TxPlan plan(const TxContext& /*ctx*/) override {
    return TxPlan::single(rate_);
  }
  void on_tx_outcome(const TxFeedback& /*fb*/) override {}

 private:
  phy::Rate rate_;
};

}  // namespace wlan::rate
