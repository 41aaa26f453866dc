// Indoor radio propagation: log-distance path loss with optional
// log-normal shadowing, plus carrier-sense and SNR helpers.
//
// Substitutes for the physical IETF venue: the paper's floor plan (Figures
// 2-3) becomes positions in metres and walls become extra attenuation.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
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

/// Direct-mapped exact memo for a unary libm-backed conversion.
///
/// Interference summation converts the same dBm values over and over: link
/// budgets are fixed between moves, so `rx_power + offset` draws from a set
/// about the size of (live link pairs x transmit-power offsets), and the
/// denominators those sums produce recur whenever the same frames collide
/// again.  Keys on the argument's exact bit pattern and stores Fn's exact
/// result, so a hit returns the identical double a direct call would —
/// capacity only moves the hit rate, never a value (the same contract as
/// FrameSuccessCache, including the deterministic start-small/grow-4x
/// policy: per-run fixtures construct many channels, so a large upfront
/// table would zero hundreds of KB for nothing).  Not thread-safe: own one
/// per channel, never share across runner threads.
template <double (*Fn)(double)>
class ExactUnaryMemo {
 public:
  explicit ExactUnaryMemo(unsigned log2_entries = 10,
                          unsigned log2_entries_cap = 15)
      : log2_(log2_entries), log2_cap_(log2_entries_cap),
        entries_(std::size_t{1} << log2_entries, Entry{kEmptyBits, 0.0}) {}

  double operator()(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    Entry* e = &entries_[(bits * 0x9E3779B97F4A7C15ULL) >> (64 - log2_)];
    if (e->bits == bits) {
      ++hits_;
      return e->value;
    }
    ++evals_;
    if (log2_ < log2_cap_ &&
        ++misses_since_resize_ >= (entries_.size() << 2)) {
      log2_ = log2_ + 2 > log2_cap_ ? log2_cap_ : log2_ + 2;
      entries_.assign(std::size_t{1} << log2_, Entry{kEmptyBits, 0.0});
      misses_since_resize_ = 0;
      e = &entries_[(bits * 0x9E3779B97F4A7C15ULL) >> (64 - log2_)];
    }
    e->bits = bits;
    e->value = Fn(x);
    return e->value;
  }

  /// Current table size; tests pin the growth policy with this.
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  // Work counters: exact-key hits vs full Fn (libm) evaluations.  Harvested
  // into obs::Metrics once per run.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t evals() const { return evals_; }

 private:
  struct Entry {
    std::uint64_t bits;
    double value;
  };
  // A signalling-NaN payload no real dBm/mW argument can carry, so an empty
  // slot can never alias a live key and no separate valid flag is needed.
  static constexpr std::uint64_t kEmptyBits = 0x7FF4DEADBEEFDEADULL;

  unsigned log2_;
  unsigned log2_cap_;
  std::uint64_t misses_since_resize_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evals_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace wlan::phy
