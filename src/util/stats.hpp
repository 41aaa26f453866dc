// Streaming statistics and histogram utilities shared by the analysis layer
// and the benches.
//
// These back the paper's aggregation style: per-second samples are binned
// by measured utilization, then summarized as a mean per bin (§6).
// Everything is single-pass and allocation-light so the benches can afford
// millions of samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace wlan::util {

/// Streaming accumulator: Welford running mean, min, max and sum without
/// storing samples.
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp into
/// the first/last bin.  Used e.g. for the Figure 5(c) utilization histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const;
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Center of the bin with the highest count (the distribution's mode);
  /// nullopt when empty.
  [[nodiscard]] std::optional<double> mode() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace wlan::util
