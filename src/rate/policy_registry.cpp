#include "rate/policy_registry.hpp"

#include <stdexcept>

#include "rate/arf.hpp"
#include "rate/fixed.hpp"
#include "rate/minstrel_lite.hpp"
#include "rate/snr_threshold.hpp"

namespace wlan::rate {

namespace {

using ControllerPtr = std::unique_ptr<RateController>;

struct Entry {
  std::string_view key;
  std::string_view display;
  PolicyRegistry::Factory factory;
};

/// The built-in policies, in the order keys() presents them.
constexpr Entry kPolicies[] = {
    {"arf", "ARF",
     [](std::uint64_t) -> ControllerPtr {
       return std::make_unique<Arf>(Arf::kArfCeiling);
     }},
    {"aarf", "AARF",
     [](std::uint64_t) -> ControllerPtr {
       return std::make_unique<Arf>(Arf::kAarfCeiling);
     }},
    {"snr", "SNR",
     [](std::uint64_t) -> ControllerPtr {
       return std::make_unique<SnrThreshold>();
     }},
    {"fixed1", "FIXED-1",
     [](std::uint64_t) -> ControllerPtr {
       return std::make_unique<Fixed>(phy::Rate::kR1);
     }},
    {"fixed11", "FIXED-11",
     [](std::uint64_t) -> ControllerPtr {
       return std::make_unique<Fixed>(phy::Rate::kR11);
     }},
    {"minstrel", "MINSTREL",
     [](std::uint64_t s) -> ControllerPtr {
       return std::make_unique<MinstrelLite>(s);
     }},
};

/// The row for `key`, or the one unknown-key error: names the key and
/// lists the known ones.
const Entry& entry(std::string_view key) {
  for (const Entry& e : kPolicies) {
    if (e.key == key) return e;
  }
  std::string known;
  for (const Entry& e : kPolicies) {
    if (!known.empty()) known += ", ";
    known += e.key;
  }
  throw std::invalid_argument("PolicyRegistry: unknown policy \"" +
                              std::string(key) + "\" (known: " + known + ")");
}

}  // namespace

const PolicyRegistry& PolicyRegistry::instance() {
  static const PolicyRegistry registry;
  return registry;
}

std::vector<std::string> PolicyRegistry::keys() const {
  std::vector<std::string> out;
  for (const Entry& e : kPolicies) out.emplace_back(e.key);
  return out;
}

std::string_view PolicyRegistry::display_name(std::string_view key) const {
  return entry(key).display;
}

std::unique_ptr<RateController> PolicyRegistry::make(
    const ControllerConfig& config, std::uint64_t stream_seed) const {
  return entry(config.policy).factory(stream_seed);
}

}  // namespace wlan::rate
