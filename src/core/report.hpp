// Figure builders: turn AnalysisResults into the exact series the paper
// plots in Figures 6-15, rendered as ASCII charts + data tables by the
// bench binaries.
//
// FigureAccumulator can absorb multiple analyses (e.g. one per load point of
// a sweep); every figure is a utilization-binned mean, exactly as the paper
// averages "over all one second intervals that are y% utilized".
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/frame_classes.hpp"
#include "core/streaming.hpp"
#include "core/utilization.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/log_histogram.hpp"

namespace wlan::core {

struct FigureSeries {
  std::string title;
  std::string x_label;
  std::vector<double> x;
  std::vector<util::Series> series;
};

/// Renders chart + the underlying numbers as a table.
[[nodiscard]] std::string render_figure(const FigureSeries& fig);

/// §6.1: channel-access efficiency of RTS/CTS users vs everyone else —
/// distinct data frames delivered per channel transmission the sender made
/// (RTS frames count as transmissions for their senders).
struct RtsFairness {
  std::size_t rts_senders = 0;
  std::size_t other_senders = 0;
  double rts_delivery_ratio = 0.0;
  double other_delivery_ratio = 0.0;
};

class FigureAccumulator {
 public:
  FigureAccumulator() = default;

  /// Absorbs one analyzed trace.  Implemented on the incremental API below,
  /// so batch and streaming accumulation perform the identical float
  /// operations in the identical per-binner order — byte-identical figures.
  void add(const AnalysisResult& analysis);

  // --- incremental API (streaming path; see core/streaming.hpp) ---------
  /// Absorbs one finalized second.
  void add_second(const SecondStats& s);
  /// Absorbs one acceptance sample at its second's final utilization.
  void add_acceptance(double utilization_pct, const AcceptanceSample& sample);
  /// Folds per-sender tallies (call once per capture, after its seconds).
  void add_senders(const std::unordered_map<mac::Addr, SenderStats>& senders);

  /// Folds one run's per-frame delay components (simulator ground truth,
  /// microseconds; see workload::CellResult).  Integer histograms, so
  /// percentile readouts stay deterministic across merges in grid order.
  void add_delays(const util::LogHistogram& queue,
                  const util::LogHistogram& service) {
    queue_delay_.merge(queue);
    service_delay_.merge(service);
  }

  /// Folds another accumulator into this one (parallel sweep reduction).
  /// Bit-exact reproducibility requires merging partials in a fixed order —
  /// the exp runner merges per-run accumulators in grid-index order so the
  /// result is independent of thread count and schedule.
  void merge(const FigureAccumulator& other);

  /// Number of one-second intervals absorbed so far.
  [[nodiscard]] std::size_t seconds_absorbed() const { return seconds_; }

  // --- figures ----------------------------------------------------------
  [[nodiscard]] FigureSeries fig06_throughput_goodput(std::size_t min_n = 3) const;
  [[nodiscard]] FigureSeries fig07_rts_cts(std::size_t min_n = 3) const;
  [[nodiscard]] FigureSeries fig08_busytime_share(std::size_t min_n = 3) const;
  [[nodiscard]] FigureSeries fig09_bytes_per_rate(std::size_t min_n = 3) const;
  /// Figs. 10/11: one size class across the four rates.
  [[nodiscard]] FigureSeries fig10_11_frames_of_class(SizeClass cls,
                                                      std::size_t min_n = 3) const;
  /// Figs. 12/13: one rate across the four size classes.
  [[nodiscard]] FigureSeries fig12_13_frames_at_rate(phy::Rate rate,
                                                     std::size_t min_n = 3) const;
  [[nodiscard]] FigureSeries fig14_first_attempt_acked(std::size_t min_n = 3) const;
  /// Fig. 15 categories: S-1, XL-1, S-11, XL-11 (paper's selection).
  [[nodiscard]] FigureSeries fig15_acceptance_delay(std::size_t min_n = 3) const;

  [[nodiscard]] RtsFairness rts_fairness() const;

  /// The §5.2 saturation knee of the binned throughput, if the data show
  /// one (core::detect_saturation_knee).
  [[nodiscard]] std::optional<double> knee_utilization() const;

  /// Per-frame delay-component distributions (paper §6): queueing wait and
  /// head-of-line service time, microseconds.  Empty unless add_delays fed
  /// simulator ground truth in.
  [[nodiscard]] const util::LogHistogram& queue_delay() const {
    return queue_delay_;
  }
  [[nodiscard]] const util::LogHistogram& service_delay() const {
    return service_delay_;
  }

 private:
  std::size_t seconds_ = 0;

  UtilizationBinner throughput_;
  UtilizationBinner goodput_;
  UtilizationBinner rts_;
  UtilizationBinner cts_;
  std::array<UtilizationBinner, phy::kNumRates> cbt_by_rate_;
  std::array<UtilizationBinner, phy::kNumRates> bytes_by_rate_;
  std::array<UtilizationBinner, phy::kNumRates> first_acked_;
  std::array<UtilizationBinner, kNumCategories> tx_by_category_;
  std::array<UtilizationBinner, kNumCategories> acceptance_;

  util::LogHistogram queue_delay_;
  util::LogHistogram service_delay_;

  std::unordered_map<mac::Addr, SenderStats> senders_;
};

/// One paper figure and the CSV file that holds it.
struct PaperFigure {
  std::string file;  ///< "fig06.csv" ... "fig15.csv"
  FigureSeries figure;
};

/// Figures 6-15 in order, one file each: Figs. 10/11 are the S and XL size
/// classes across the four rates, Figs. 12/13 are 1 and 11 Mbps across the
/// four size classes.  The one list the figure bench and wlan_analyze write.
[[nodiscard]] std::vector<PaperFigure> paper_figures(
    const FigureAccumulator& acc);

/// AnalysisSink that feeds a FigureAccumulator as the capture streams by —
/// the constant-memory figure path.  After StreamingAnalyzer::finish(),
/// fold the returned result's senders in with accumulator.add_senders (the
/// sink only sees per-second events).
class FigureStreamSink final : public AnalysisSink {
 public:
  explicit FigureStreamSink(FigureAccumulator& accumulator)
      : accumulator_(&accumulator) {}

  void on_second(const SecondStats& s) override {
    accumulator_->add_second(s);
  }
  void on_acceptance(const AcceptanceSample& sample,
                     double utilization_pct) override {
    accumulator_->add_acceptance(utilization_pct, sample);
  }

 private:
  FigureAccumulator* accumulator_;
};

/// Writes a FigureSeries' data table as CSV (one row per x with any finite
/// series value).  Shared by bench/common.cpp's emit_figure and the
/// wlan_analyze tool so their files are byte-identical for equal figures.
void write_figure_csv(const FigureSeries& fig, const std::string& path);

/// Streams the per-second time series (Fig. 5-style) to CSV as seconds
/// finalize: second, utilization_pct, throughput_mbps, goodput_mbps.
class SecondsCsvSink final : public AnalysisSink {
 public:
  explicit SecondsCsvSink(const std::string& path)
      : csv_(path, {"second", "utilization_pct", "throughput_mbps",
                    "goodput_mbps"}) {}

  void on_second(const SecondStats& s) override {
    csv_.row({static_cast<double>(s.second), s.utilization(),
              s.throughput_mbps(), s.goodput_mbps()});
  }
  void on_acceptance(const AcceptanceSample&, double) override {}

 private:
  util::CsvWriter csv_;
};

/// Fans one analysis stream out to several sinks (figures + CSV in one
/// pass).  Sinks receive events in the order given.
class TeeSink final : public AnalysisSink {
 public:
  explicit TeeSink(std::vector<AnalysisSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void on_second(const SecondStats& s) override {
    for (AnalysisSink* sink : sinks_) sink->on_second(s);
  }
  void on_acceptance(const AcceptanceSample& sample,
                     double utilization_pct) override {
    for (AnalysisSink* sink : sinks_) sink->on_acceptance(sample, utilization_pct);
  }

 private:
  std::vector<AnalysisSink*> sinks_;
};

}  // namespace wlan::core
