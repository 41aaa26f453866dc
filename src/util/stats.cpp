#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace wlan::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: need bins > 0 and hi > lo");
  }
}

void Histogram::add(double x, std::uint64_t weight) {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

std::uint64_t Histogram::bin_count(std::size_t i) const { return counts_.at(i); }
double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}
double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }
double Histogram::bin_center(std::size_t i) const {
  return bin_lo(i) + width_ / 2;
}

std::optional<double> Histogram::mode() const {
  if (total_ == 0) return std::nullopt;
  const auto it = std::max_element(counts_.begin(), counts_.end());
  return bin_center(static_cast<std::size_t>(it - counts_.begin()));
}

}  // namespace wlan::util
