// Deterministic random number generation.
//
// Library code never uses std::uniform_int_distribution et al. because their
// output is implementation-defined; benches and tests must produce identical
// traces on every platform.  We ship xoshiro256++ (public domain, Blackman &
// Vigna) plus small, stable distribution helpers.
#pragma once

#include <array>
#include <cstdint>

namespace wlan::util {

/// xoshiro256++ 1.0 pseudo-random generator.  Deterministic across platforms,
/// 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  std::uint64_t next();

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);

  /// UniformRandomBitGenerator interface so std::shuffle can be used.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Element `index` of the SplitMix64 stream seeded with `base`, in O(1)
/// (the stream's state advances by a fixed odd constant, so any element is
/// directly addressable).  This is how sweeps derive independent, stable
/// per-run seeds: the seed of grid point i never changes when points are
/// added after it, reordered across threads, or re-run in isolation.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index);

}  // namespace wlan::util
