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

#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
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

/// Direct-mapped memo for frame_success_probability.
///
/// The channel evaluates millions of receptions per run, but on static links
/// the (rate, size, SINR) triple repeats endlessly: every ACK/CTS/beacon has
/// a fixed size and every non-overlapped frame on a link sees the same SINR
/// run-round.  frame_success_probability burns four libm pow() calls; this
/// cache keys on the *exact* triple (SINR compared by bit pattern) so a hit
/// returns the identical double the direct computation would — simulations
/// stay byte-for-byte deterministic.
///
/// Sizing: the working set is one (size, SINR) point per live link x frame
/// size, so a big cell wants ~2^18 slots while a unit-test fixture touches a
/// few hundred — and a sweep constructs hundreds of caches, so a large
/// upfront table would zero megabytes per run for nothing.  The cache
/// therefore starts at 2^log2_entries and grows 4x (up to the cap) whenever
/// the misses since the last resize exceed four times the table — a purely
/// size-driven, deterministic policy.  Growth discards the table (hits must
/// re-miss once) but never changes a returned value: every entry is an exact
/// memo, so capacity only moves the hit rate, keeping output byte-identical
/// across sizes.  Not thread-safe: own one per channel or sniffer, never
/// share across runner threads.
class FrameSuccessCache {
 public:
  explicit FrameSuccessCache(unsigned log2_entries = 12,
                             unsigned log2_entries_cap = 12)
      : log2_(log2_entries), log2_cap_(log2_entries_cap),
        entries_(std::size_t{1} << log2_entries) {
    for (Rate r : kAllRates) {
      saturation_db_[rate_index(r)] = saturation_snr_db(r);
    }
  }

  double operator()(Rate rate, std::uint32_t bytes, double snr_db) {
    // Saturated SINRs (common for close-in receivers) would otherwise flood
    // the table with single-use keys; answer them without touching it.
    // (Thresholds are copied into the cache at construction: this runs tens
    // of millions of times per session, too hot for a static-local guard.)
    if (snr_db >= saturation_db_[rate_index(rate)]) {
      ++saturated_;
      return 1.0;
    }
    std::uint64_t snr_bits;
    std::memcpy(&snr_bits, &snr_db, sizeof snr_bits);
    const std::uint64_t key =
        (snr_bits * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(bytes) << 8) ^
        static_cast<std::uint64_t>(rate);
    Entry* e = &entries_[(key * 0xC2B2AE3D27D4EB4FULL) >> (64 - log2_)];
    if (e->snr_bits == snr_bits && e->bytes == bytes && e->rate == rate &&
        e->valid) {
      ++hits_;
      return e->p;
    }
    ++evals_;
    if (log2_ < log2_cap_ &&
        ++misses_since_resize_ >= (entries_.size() << 2)) {
      ++resizes_;
      log2_ = log2_ + 2 > log2_cap_ ? log2_cap_ : log2_ + 2;
      entries_.assign(std::size_t{1} << log2_, Entry{});
      misses_since_resize_ = 0;
      e = &entries_[(key * 0xC2B2AE3D27D4EB4FULL) >> (64 - log2_)];
    }
    e->snr_bits = snr_bits;
    e->bytes = bytes;
    e->rate = rate;
    e->valid = true;
    e->p = frame_success_probability(rate, bytes, snr_db);
    return e->p;
  }

  /// Current table size; tests pin the growth policy with this.
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  // Work counters: exact-key hits, full frame_success_probability
  // evaluations (the four-libm-pow path), answers served by the saturation
  // shortcut, and table resizes.  Deterministic per (seed, config);
  // harvested into obs::Metrics once per run.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t evals() const { return evals_; }
  [[nodiscard]] std::uint64_t saturated() const { return saturated_; }
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  struct Entry {
    std::uint64_t snr_bits = 0;
    double p = 0.0;
    std::uint32_t bytes = 0;
    Rate rate = Rate::kR1;
    bool valid = false;
  };

  unsigned log2_;
  unsigned log2_cap_;
  std::uint64_t misses_since_resize_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evals_ = 0;
  std::uint64_t saturated_ = 0;
  std::uint64_t resizes_ = 0;
  std::vector<Entry> entries_;
  std::array<double, kNumRates> saturation_db_{};
};

/// SINR margin (dB) above which the stronger of two overlapping frames is
/// still captured by the receiver (physical-layer capture effect).
inline constexpr double kCaptureThresholdDb = 10.0;

}  // namespace wlan::phy
