// The paper's 16-category frame taxonomy (§6): four size classes
// (S 0-400 B, M 401-800 B, L 801-1200 B, XL >1200 B) crossed with the four
// 802.11b data rates.  Category names follow the paper: "S-1", "XL-11", ...
#pragma once

#include <cstdint>
#include <string>

#include "mac/frame.hpp"
#include "phy/rate.hpp"

namespace wlan::core {

/// Data frames and the association handshake: the frames the analyzers
/// treat as the DATA of an atomic exchange, and whose BSSID ties a client
/// to its AP.
[[nodiscard]] constexpr bool is_data_like(mac::FrameType t) {
  return t == mac::FrameType::kData || t == mac::FrameType::kAssocReq ||
         t == mac::FrameType::kAssocResp || t == mac::FrameType::kDisassoc;
}

enum class SizeClass : std::uint8_t { kS = 0, kM = 1, kL = 2, kXL = 3 };
inline constexpr std::size_t kNumSizeClasses = 4;

/// Classifies a frame by its total on-air MAC size in bytes.
[[nodiscard]] SizeClass size_class(std::uint32_t size_bytes);

[[nodiscard]] std::string_view size_class_name(SizeClass c);

/// Dense index in [0, 16): size class major, rate minor.
[[nodiscard]] constexpr std::size_t category_index(SizeClass c, phy::Rate r) {
  return static_cast<std::size_t>(c) * phy::kNumRates + phy::rate_index(r);
}
inline constexpr std::size_t kNumCategories = kNumSizeClasses * phy::kNumRates;

/// "S-1", "M-5.5", "XL-11", ... as used in Figures 10-13 and 15.
[[nodiscard]] std::string category_name(SizeClass c, phy::Rate r);

}  // namespace wlan::core
