// String-keyed factory for rate-adaptation policies.
//
// One registry names every policy for the whole stack: stations construct
// controllers from StationConfig's policy string, exp manifests carry the
// same keys in their rate_policy column, and CLI flags / sweep axes
// validate against keys().  A policy is one row in the table in
// policy_registry.cpp: its key, the display name tables and legends print,
// and its factory.  The table is constant, so any thread may read the
// registry.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rate/rate_controller.hpp"

namespace wlan::rate {

class PolicyRegistry {
 public:
  /// Builds one controller instance.  `stream_seed` is a stable per-link
  /// seed (stations derive it from their own seed and the peer address);
  /// deterministic policies ignore it, randomized ones (MinstrelLite's
  /// probe schedule) draw only from it, so runs stay pure functions of
  /// (seed, config).  A policy's parameters are constants in its class, so
  /// the seed is all a factory takes.
  using Factory =
      std::unique_ptr<RateController> (*)(std::uint64_t stream_seed);

  /// The process-wide registry of the built-in policies.
  static const PolicyRegistry& instance();

  /// Keys in table order — the stable order CLI help and sweep axes
  /// present.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Human-readable name for tables and figure legends ("arf" -> "ARF").
  /// This and make() throw std::invalid_argument for an unknown key,
  /// listing the known ones.
  [[nodiscard]] std::string_view display_name(std::string_view key) const;

  /// Constructs a controller for config.policy.
  [[nodiscard]] std::unique_ptr<RateController> make(
      const ControllerConfig& config, std::uint64_t stream_seed) const;

 private:
  PolicyRegistry() = default;
};

}  // namespace wlan::rate
