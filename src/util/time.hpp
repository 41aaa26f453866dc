// Microsecond-resolution simulation time.
//
// All MAC/PHY timing in this library is expressed in integer microseconds,
// the natural unit of the IEEE 802.11 timing parameters (SIFS = 10 us,
// DIFS = 50 us, ...).  A strong type prevents accidental mixing of
// microseconds with seconds or slot counts.
//
// Layer contract (util): this layer depends on nothing else in the repo —
// it is the root of the dependency DAG (docs/ARCHITECTURE.md) and must
// stay free of phy/mac/sim/core includes.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace wlan {

/// A point in simulated time, in microseconds since simulation start.
/// Also used for durations; the arithmetic below keeps both readable.
class Microseconds {
 public:
  constexpr Microseconds() = default;
  constexpr explicit Microseconds(std::int64_t us) : us_(us) {}

  [[nodiscard]] constexpr std::int64_t count() const { return us_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(us_) / 1e6;
  }

  friend constexpr auto operator<=>(Microseconds, Microseconds) = default;

  constexpr Microseconds& operator+=(Microseconds d) {
    us_ += d.us_;
    return *this;
  }
  constexpr Microseconds& operator-=(Microseconds d) {
    us_ -= d.us_;
    return *this;
  }
  friend constexpr Microseconds operator+(Microseconds a, Microseconds b) {
    return Microseconds{a.us_ + b.us_};
  }
  friend constexpr Microseconds operator-(Microseconds a, Microseconds b) {
    return Microseconds{a.us_ - b.us_};
  }
  friend constexpr Microseconds operator*(Microseconds a, std::int64_t k) {
    return Microseconds{a.us_ * k};
  }
  friend constexpr Microseconds operator*(std::int64_t k, Microseconds a) {
    return a * k;
  }

  /// Largest representable time; used as "never" for timers.
  static constexpr Microseconds never() {
    return Microseconds{std::numeric_limits<std::int64_t>::max()};
  }

 private:
  std::int64_t us_ = 0;
};

constexpr Microseconds usec(std::int64_t v) { return Microseconds{v}; }
constexpr Microseconds msec(std::int64_t v) { return Microseconds{v * 1000}; }
constexpr Microseconds sec(std::int64_t v) { return Microseconds{v * 1000000}; }

namespace literals {
constexpr Microseconds operator""_us(unsigned long long v) {
  return Microseconds{static_cast<std::int64_t>(v)};
}
constexpr Microseconds operator""_ms(unsigned long long v) {
  return Microseconds{static_cast<std::int64_t>(v) * 1000};
}
constexpr Microseconds operator""_s(unsigned long long v) {
  return Microseconds{static_cast<std::int64_t>(v) * 1000000};
}
}  // namespace literals

}  // namespace wlan
