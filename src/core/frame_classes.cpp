#include "core/frame_classes.hpp"

namespace wlan::core {

SizeClass size_class(std::uint32_t size_bytes) {
  if (size_bytes <= 400) return SizeClass::kS;
  if (size_bytes <= 800) return SizeClass::kM;
  if (size_bytes <= 1200) return SizeClass::kL;
  return SizeClass::kXL;
}

std::string_view size_class_name(SizeClass c) {
  switch (c) {
    case SizeClass::kS: return "S";
    case SizeClass::kM: return "M";
    case SizeClass::kL: return "L";
    case SizeClass::kXL: return "XL";
  }
  return "?";
}

std::string category_name(SizeClass c, phy::Rate r) {
  std::string name{size_class_name(c)};
  name += '-';
  name += phy::rate_name(r);
  return name;
}

}  // namespace wlan::core
