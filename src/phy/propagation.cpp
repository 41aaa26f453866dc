#include "phy/propagation.hpp"

#include <algorithm>
#include <bit>

namespace wlan::phy {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Propagation::Propagation(PropagationConfig config, std::uint64_t shadow_seed)
    : config_(config), shadow_seed_(shadow_seed) {}

double Propagation::shadowing_db(const Position& from, const Position& to) const {
  if (config_.shadowing_sigma_db <= 0.0) return 0.0;
  // Hash the unordered endpoint pair into an RNG seed so the draw is frozen
  // per link and symmetric (radio links are reciprocal).
  auto quantize = [](double v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v * 4.0));
  };
  const std::uint64_t ha =
      quantize(from.x) * 0x9e3779b97f4a7c15ULL ^ quantize(from.y) * 0xc2b2ae3d27d4eb4fULL ^
      static_cast<std::uint64_t>(from.floor) * 0x165667b19e3779f9ULL;
  const std::uint64_t hb =
      quantize(to.x) * 0x9e3779b97f4a7c15ULL ^ quantize(to.y) * 0xc2b2ae3d27d4eb4fULL ^
      static_cast<std::uint64_t>(to.floor) * 0x165667b19e3779f9ULL;
  const std::uint64_t key = (ha ^ hb) + shadow_seed_;  // symmetric in (a, b)
  util::Rng rng(key);
  return rng.normal(0.0, config_.shadowing_sigma_db);
}

double Propagation::rx_power_dbm(const Position& from, const Position& to) const {
  const double d = std::max(distance(from, to), 1.0);
  const double path_loss =
      kReferenceLossDb + 10.0 * config_.path_loss_exponent * std::log10(d);
  const double floors = std::abs(from.floor - to.floor);
  return kTxPowerDbm - path_loss - floors * kFloorPenaltyDb +
         shadowing_db(from, to);
}

double Propagation::snr_db(const Position& from, const Position& to) const {
  return rx_power_dbm(from, to) - kNoiseFloorDbm;
}

}  // namespace wlan::phy
