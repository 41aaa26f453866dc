// Multirate adaptation interface.
//
// The 802.11 standard leaves rate adaptation to vendors (paper §3); the
// paper's central finding is that ARF-style loss-triggered adaptation is
// detrimental under congestion because it cannot distinguish collision
// losses from channel-error losses.  This interface lets benches swap the
// policy (the ablation the paper could not run on proprietary firmware).
//
// Layer contract (rate): controllers are pure per-link policy objects with
// no MAC or simulator dependencies.  For each head-of-line frame the MAC
// asks for a TxPlan — an ordered retry chain of (rate, max-attempts)
// stages — and reports every attempt back through on_tx_outcome() with the
// rate actually used, the retry index, and the outcome.  Windowed policies
// (Minstrel-family) additionally receive deterministic on_tick() calls
// carrying simulated time; controllers never read clocks or RNGs of their
// own beyond the seed handed to their factory.  Policies are constructed by
// string key through rate::PolicyRegistry (policy_registry.hpp), the one
// place a policy is named and configured: its row holds the key, the
// display name benches print, and a factory that takes only the stream
// seed.  A policy's parameters are constants in its class.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

#include "phy/rate.hpp"
#include "util/time.hpp"

namespace wlan::rate {

/// Everything the MAC knows when it plans a head-of-line data frame.
struct TxContext {
  /// Last known SNR toward the receiver, dB; nullopt when the link has
  /// never been measured.  Loss-based policies ignore it.
  std::optional<double> snr_db;
  /// MSDU payload size of the frame being planned, bytes.
  std::uint32_t payload_bytes = 0;
  /// Current simulated time.
  Microseconds now{0};
  /// MAC short retry limit: attempts beyond it are dropped, so chains
  /// longer than this are planning for attempts that will never happen.
  std::uint32_t retry_limit = 7;
};

/// One stage of a retry chain: try `rate` up to `attempts` times.
struct TxStage {
  phy::Rate rate = phy::Rate::kR1;
  std::uint8_t attempts = 1;
};

/// An ordered retry chain.  Fixed capacity, value type, no allocation —
/// planned once per head-of-line frame on the MAC hot path.
class TxPlan {
 public:
  static constexpr std::size_t kMaxStages = 4;

  /// Appends a stage; ignored when full or `attempts` == 0.
  constexpr void push(phy::Rate rate, std::uint8_t attempts) {
    if (size_ == kMaxStages || attempts == 0) return;
    stages_[size_++] = TxStage{rate, attempts};
  }

  /// The classic single-rate plan legacy policies emit.
  [[nodiscard]] static constexpr TxPlan single(phy::Rate rate,
                                               std::uint8_t attempts = 1) {
    TxPlan p;
    p.push(rate, attempts);
    return p;
  }

  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] constexpr const TxStage& stage(std::size_t i) const {
    assert(i < size_);
    return stages_[i];
  }

  /// Sum of per-stage attempt budgets.
  [[nodiscard]] constexpr std::uint32_t total_attempts() const {
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < size_; ++i) n += stages_[i].attempts;
    return n;
  }

  /// Rate for the 0-based `attempt`; attempts past the chain's end clamp
  /// into the final stage (the MAC's retry limit, not the plan, decides
  /// when to give up).  An empty plan yields the 1 Mbps floor.
  [[nodiscard]] constexpr phy::Rate rate_for_attempt(
      std::uint32_t attempt) const {
    if (size_ == 0) return phy::Rate::kR1;
    for (std::size_t i = 0; i < size_; ++i) {
      if (attempt < stages_[i].attempts) return stages_[i].rate;
      attempt -= stages_[i].attempts;
    }
    return stages_[size_ - 1].rate;
  }

 private:
  std::array<TxStage, kMaxStages> stages_{};
  std::uint8_t size_ = 0;
};

/// One transmission attempt's outcome, reported to the planning controller.
struct TxFeedback {
  /// Rate the attempt was actually sent at.
  phy::Rate rate = phy::Rate::kR1;
  /// 0-based retry index of the attempt within its frame.
  std::uint32_t attempt = 0;
  /// True when the attempt was acknowledged.
  bool success = false;
  /// MSDU payload size, bytes.
  std::uint32_t payload_bytes = 0;
  /// Nominal airtime of the data frame at `rate` (PLCP + MAC overhead in).
  Microseconds airtime{0};
  /// Simulated time the outcome was learned.
  Microseconds now{0};
};

class RateController {
 public:
  virtual ~RateController() = default;

  /// Plans the retry chain for the next head-of-line data frame.  Called
  /// once per frame; the MAC walks the chain across retries and only
  /// re-plans after the chain (or the frame) is exhausted.
  [[nodiscard]] virtual TxPlan plan(const TxContext& ctx) = 0;

  /// Reports one transmission attempt's outcome (ACKed, or no ACK / no
  /// CTS).  Called for every attempt, in order.
  virtual void on_tx_outcome(const TxFeedback& fb) = 0;

  /// Deterministic time signal: called with the current simulated time
  /// before each plan().  Windowed policies fold statistics here; the
  /// default is a no-op.
  virtual void on_tick(Microseconds /*now*/) {}
};

/// Which built-in policy a link runs: a PolicyRegistry key ("arf",
/// "aarf", "snr", "fixed1", "fixed11", "minstrel").  Unknown keys fail at
/// construction with the known keys in the message.
struct ControllerConfig {
  std::string policy = "arf";
};

}  // namespace wlan::rate
