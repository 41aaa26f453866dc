// Binary exponential backoff entity (one per transmitting station).
//
// Draws a count in slot units; the channel counts the slots down for every
// contender at once, freezing the countdown while the medium is busy and
// resuming it when idle again, per DCF.
#pragma once

#include <cstdint>

#include "mac/timing.hpp"
#include "util/rng.hpp"

namespace wlan::mac {

class Backoff {
 public:
  explicit Backoff(const Timing& timing, util::Rng& rng)
      : timing_(&timing), rng_(&rng), cw_(timing.cw_min) {}

  /// Draws a fresh backoff in [0, cw] slots.  Called when a new transmission
  /// attempt begins or after a collision doubled the window.
  void draw();

  /// Doubles the contention window up to cw_max (after a failed attempt).
  void grow();

  /// Resets the window to cw_min (after success or retry abandonment).
  void reset();

  [[nodiscard]] std::uint32_t slots_remaining() const { return remaining_; }
  [[nodiscard]] std::uint32_t contention_window() const { return cw_; }

 private:
  const Timing* timing_;
  util::Rng* rng_;
  std::uint32_t cw_;
  std::uint32_t remaining_ = 0;
};

}  // namespace wlan::mac
