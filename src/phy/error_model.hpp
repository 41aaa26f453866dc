// Bit/frame error model for the four 802.11b modulations.
//
// BER approximations follow the forms used by the ns-2/ns-3 DSSS models
// (Pursley & Taipale for CCK):
//   1 Mbps   DBPSK :  0.5 * exp(-snr)
//   2 Mbps   DQPSK :  Q(sqrt(1.1586 * snr))   (approximated)
//   5.5 Mbps CCK   :  ~8-chip CCK union bound
//   11 Mbps  CCK   :  ~8-chip CCK union bound (256-ary)
// where snr is the *linear* signal-to-noise ratio.  Exact coefficients are
// less important than ordering: at equal SNR, BER(1) < BER(2) < BER(5.5)
// < BER(11), which is what drives rate adaptation in the paper.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "phy/exact_memo.hpp"
#include "phy/rate.hpp"

namespace wlan::phy {

/// Bit error rate at `snr_db` for the given modulation.  Clamped to [0, 0.5].
double bit_error_rate(Rate rate, double snr_db);

/// Probability that a frame of `bytes` total MAC bytes at `rate` is received
/// without error at `snr_db` (PLCP header errors folded in at 1 Mbps).
double frame_success_probability(Rate rate, std::uint32_t bytes, double snr_db);

/// SNR (dB) needed for ~`target` frame success probability at `bytes` size.
/// Used by the SNR-threshold rate controller and by tests.
double required_snr_db(Rate rate, std::uint32_t bytes, double target);

/// SNR (dB) above which frame_success_probability returns exactly 1.0 for
/// every frame length at `rate`: past this point `1.0 - ber` rounds to 1.0
/// (for the body rate and the 1 Mbps PLCP alike) and pow(1.0, n) == 1.0, so
/// the shortcut is bit-identical to the full evaluation.  Collision-heavy
/// sessions produce millions of distinct high-SINR values that defeat the
/// memo cache below; this guard spares them four libm pow() calls each.
double saturation_snr_db(Rate rate);

/// frame_success_probability's arguments as an ExactMemo key: the SINR by
/// bit pattern, the frame length and the rate.
struct FrameSuccessKey {
  std::uint64_t snr_bits = kEmptyKeyBits;
  std::uint32_t bytes = 0;
  Rate rate = Rate::kR1;

  bool operator==(const FrameSuccessKey&) const = default;
  [[nodiscard]] std::uint64_t slot_hash() const {
    const std::uint64_t mix = (snr_bits * 0x9E3779B97F4A7C15ULL) ^
                              (static_cast<std::uint64_t>(bytes) << 8) ^
                              static_cast<std::uint64_t>(rate);
    return mix * 0xC2B2AE3D27D4EB4FULL;
  }
  [[nodiscard]] double eval() const {
    return frame_success_probability(rate, bytes,
                                     std::bit_cast<double>(snr_bits));
  }
};

/// Exact memo of frame_success_probability, one per channel and sniffer.
/// On static links the (rate, size, SINR) triple repeats endlessly (fixed
/// ACK/CTS/beacon sizes, one SINR per non-overlapped link), so hits spare
/// most of the four libm pow() calls.  Saturated SINRs, which would flood
/// the table with single-use keys, are answered first; their thresholds are
/// copied in at construction, as this runs too hot for a static-local guard.
class FrameSuccessCache : public ExactMemo<FrameSuccessKey> {
 public:
  FrameSuccessCache(unsigned log2_entries, unsigned log2_entries_cap)
      : ExactMemo(log2_entries, log2_entries_cap) {
    for (Rate r : kAllRates) {
      saturation_db_[rate_index(r)] = saturation_snr_db(r);
    }
  }

  double operator()(Rate rate, std::uint32_t bytes, double snr_db) {
    if (snr_db >= saturation_db_[rate_index(rate)]) {
      ++saturated_;
      return 1.0;
    }
    return ExactMemo::operator()(
        FrameSuccessKey{std::bit_cast<std::uint64_t>(snr_db), bytes, rate});
  }

  /// Answers served by the saturation shortcut, which never reach the memo.
  [[nodiscard]] std::uint64_t saturated() const { return saturated_; }

 private:
  std::uint64_t saturated_ = 0;
  std::array<double, kNumRates> saturation_db_{};
};

/// SINR margin (dB) above which the stronger of two overlapping frames is
/// still captured by the receiver (physical-layer capture effect).
inline constexpr double kCaptureThresholdDb = 10.0;

}  // namespace wlan::phy
