#include "rate/snr_threshold.hpp"

#include "phy/error_model.hpp"

namespace wlan::rate {

SnrThreshold::SnrThreshold() {
  for (phy::Rate r : phy::kAllRates) {
    thresholds_[phy::rate_index(r)] =
        phy::required_snr_db(r, kFrameBytes, kTarget);
  }
}

TxPlan SnrThreshold::plan(const TxContext& ctx) {
  if (ctx.snr_db) last_known_snr_ = *ctx.snr_db;
  // Highest rate whose threshold the SNR clears; 1 Mbps is the floor.
  phy::Rate best = phy::Rate::kR1;
  for (phy::Rate r : phy::kAllRates) {
    if (last_known_snr_ >= thresholds_[phy::rate_index(r)]) best = r;
  }
  return TxPlan::single(best);
}

}  // namespace wlan::rate
