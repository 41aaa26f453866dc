// Indoor radio propagation: log-distance path loss with optional
// log-normal shadowing, plus carrier-sense and SNR helpers.
//
// Substitutes for the physical IETF venue: the paper's floor plan (Figures
// 2-3) becomes positions in metres and walls become extra attenuation.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace wlan::phy {

/// Position in metres.  `floor` adds inter-floor attenuation (the IETF
/// network spanned three adjacent floors).
struct Position {
  double x = 0.0;
  double y = 0.0;
  int floor = 0;
};

/// Euclidean distance ignoring floors (floor penalty applied separately).
double distance(const Position& a, const Position& b);

/// Fixed link-budget terms of the 2.4 GHz indoor model (dB / dBm).
inline constexpr double kReferenceLossDb = 40.0;  ///< loss at 1 m, 2.4 GHz
inline constexpr double kFloorPenaltyDb = 18.0;   ///< per floor of separation
inline constexpr double kNoiseFloorDbm = -96.0;
inline constexpr double kTxPowerDbm = 15.0;       ///< typical client card
inline constexpr double kMinRxDbm = -94.0;  ///< below this the radio sees nothing

struct PropagationConfig {
  double path_loss_exponent = 3.0;   ///< indoor with obstructions
  double shadowing_sigma_db = 0.0;   ///< 0 disables log-normal shadowing
};

/// Deterministic path-loss model.  Shadowing is *frozen* per link: the same
/// (a, b) pair always sees the same shadowing draw, which models static
/// obstructions rather than fast fading (fast variation comes from the
/// per-frame error model instead).
class Propagation {
 public:
  explicit Propagation(PropagationConfig config, std::uint64_t shadow_seed = 42);

  /// Received power at `to` for a transmitter at `from`, in dBm.
  [[nodiscard]] double rx_power_dbm(const Position& from, const Position& to) const;

  /// SNR in dB against the configured noise floor.
  [[nodiscard]] double snr_db(const Position& from, const Position& to) const;

  [[nodiscard]] const PropagationConfig& config() const { return config_; }

 private:
  [[nodiscard]] double shadowing_db(const Position& from, const Position& to) const;

  PropagationConfig config_;
  std::uint64_t shadow_seed_;
};

/// dBm <-> milliwatt conversions for interference summation.
inline double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }
inline double mw_to_dbm(double mw) { return 10.0 * std::log10(mw); }

}  // namespace wlan::phy
