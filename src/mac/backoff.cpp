#include "mac/backoff.hpp"

namespace wlan::mac {

void Backoff::draw() {
  remaining_ =
      static_cast<std::uint32_t>(rng_->uniform(static_cast<std::uint64_t>(cw_) + 1));
}

void Backoff::grow() {
  cw_ = cw_ * 2 + 1;
  if (cw_ > timing_->cw_max) cw_ = timing_->cw_max;
}

void Backoff::reset() { cw_ = timing_->cw_min; }

}  // namespace wlan::mac
