#include "core/report.hpp"

#include <cmath>
#include <sstream>

#include "util/csv.hpp"

namespace wlan::core {

namespace {
constexpr int kLo = 30;   // paper restricts analysis to 30-99% utilization
constexpr int kHi = 99;
}  // namespace

void FigureAccumulator::add(const AnalysisResult& a) {
  for (const SecondStats& s : a.seconds) add_second(s);
  // Acceptance samples carry the second they completed in; bin them at that
  // second's utilization (delay in seconds, as Figure 15 plots).
  for (const AcceptanceSample& sample : a.acceptance) {
    const auto idx = static_cast<std::size_t>(sample.second);
    if (idx >= a.seconds.size()) continue;
    add_acceptance(a.seconds[idx].utilization(), sample);
  }
  add_senders(a.senders);
}

void FigureAccumulator::add_second(const SecondStats& s) {
  const double u = s.utilization();
  ++seconds_;
  throughput_.add(u, s.throughput_mbps());
  goodput_.add(u, s.goodput_mbps());
  rts_.add(u, static_cast<double>(s.rts));
  cts_.add(u, static_cast<double>(s.cts));
  for (phy::Rate r : phy::kAllRates) {
    const std::size_t i = phy::rate_index(r);
    cbt_by_rate_[i].add(u, s.cbt_us_by_rate[i] / 1e6);  // seconds share
    bytes_by_rate_[i].add(u, static_cast<double>(s.bytes_by_rate[i]));
    first_acked_[i].add(u, static_cast<double>(s.first_attempt_acked[i]));
  }
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    tx_by_category_[c].add(u, static_cast<double>(s.tx_by_category[c]));
  }
}

void FigureAccumulator::add_acceptance(double utilization_pct,
                                       const AcceptanceSample& sample) {
  acceptance_[sample.category].add(utilization_pct, sample.delay_us / 1e6);
}

void FigureAccumulator::add_senders(
    const std::unordered_map<mac::Addr, SenderStats>& senders) {
  // wlan-lint: allow(unordered-iteration) — keyed merge of commutative
  // sums (+=) and an or-fold; the aggregate is visit-order-independent
  for (const auto& [addr, st] : senders) {
    SenderStats& agg = senders_[addr];
    agg.data_tx += st.data_tx;
    agg.data_acked += st.data_acked;
    agg.rts_tx += st.rts_tx;
    agg.uses_rtscts = agg.uses_rtscts || st.uses_rtscts;
  }
}

void FigureAccumulator::merge(const FigureAccumulator& other) {
  seconds_ += other.seconds_;
  throughput_.merge(other.throughput_);
  goodput_.merge(other.goodput_);
  rts_.merge(other.rts_);
  cts_.merge(other.cts_);
  for (std::size_t i = 0; i < phy::kNumRates; ++i) {
    cbt_by_rate_[i].merge(other.cbt_by_rate_[i]);
    bytes_by_rate_[i].merge(other.bytes_by_rate_[i]);
    first_acked_[i].merge(other.first_acked_[i]);
  }
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    tx_by_category_[c].merge(other.tx_by_category_[c]);
    acceptance_[c].merge(other.acceptance_[c]);
  }
  queue_delay_.merge(other.queue_delay_);
  service_delay_.merge(other.service_delay_);
  add_senders(other.senders_);
}

FigureSeries FigureAccumulator::fig06_throughput_goodput(std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figure 6: throughput and goodput (Mbps) vs channel utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  fig.series.push_back({"Throughput", throughput_.series(kLo, kHi, min_n)});
  fig.series.push_back({"Goodput", goodput_.series(kLo, kHi, min_n)});
  return fig;
}

FigureSeries FigureAccumulator::fig07_rts_cts(std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figure 7: RTS / CTS frames per second vs channel utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  fig.series.push_back({"RTS", rts_.series(kLo, kHi, min_n)});
  fig.series.push_back({"CTS", cts_.series(kLo, kHi, min_n)});
  return fig;
}

FigureSeries FigureAccumulator::fig08_busytime_share(std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figure 8: channel busy-time share (s) of each rate vs utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  for (phy::Rate r : phy::kAllRates) {
    fig.series.push_back(
        {std::string(phy::rate_name(r)) + " Mbps",
         cbt_by_rate_[phy::rate_index(r)].series(kLo, kHi, min_n)});
  }
  return fig;
}

FigureSeries FigureAccumulator::fig09_bytes_per_rate(std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figure 9: bytes/s transmitted at each rate vs utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  for (phy::Rate r : phy::kAllRates) {
    fig.series.push_back(
        {std::string(phy::rate_name(r)) + " Mbps",
         bytes_by_rate_[phy::rate_index(r)].series(kLo, kHi, min_n)});
  }
  return fig;
}

FigureSeries FigureAccumulator::fig10_11_frames_of_class(SizeClass cls,
                                                         std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figures 10/11: " + std::string(size_class_name(cls)) +
              "-frame transmissions per second vs utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  for (phy::Rate r : phy::kAllRates) {
    fig.series.push_back(
        {category_name(cls, r),
         tx_by_category_[category_index(cls, r)].series(kLo, kHi, min_n)});
  }
  return fig;
}

FigureSeries FigureAccumulator::fig12_13_frames_at_rate(phy::Rate rate,
                                                        std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figures 12/13: frames per second at " +
              std::string(phy::rate_name(rate)) + " Mbps vs utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  for (std::size_t c = 0; c < kNumSizeClasses; ++c) {
    const auto cls = static_cast<SizeClass>(c);
    fig.series.push_back(
        {category_name(cls, rate),
         tx_by_category_[category_index(cls, rate)].series(kLo, kHi, min_n)});
  }
  return fig;
}

FigureSeries FigureAccumulator::fig14_first_attempt_acked(std::size_t min_n) const {
  FigureSeries fig;
  fig.title =
      "Figure 14: frames ACKed on first attempt per second vs utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  for (phy::Rate r : phy::kAllRates) {
    fig.series.push_back(
        {std::string(phy::rate_name(r)) + " Mbps",
         first_acked_[phy::rate_index(r)].series(kLo, kHi, min_n)});
  }
  return fig;
}

FigureSeries FigureAccumulator::fig15_acceptance_delay(std::size_t min_n) const {
  FigureSeries fig;
  fig.title = "Figure 15: acceptance delay (s) vs utilization";
  fig.x_label = "Utilization (%)";
  fig.x = UtilizationBinner::axis(kLo, kHi);
  const std::array<std::pair<SizeClass, phy::Rate>, 4> picks = {
      std::pair{SizeClass::kS, phy::Rate::kR1},
      std::pair{SizeClass::kXL, phy::Rate::kR1},
      std::pair{SizeClass::kS, phy::Rate::kR11},
      std::pair{SizeClass::kXL, phy::Rate::kR11},
  };
  for (const auto& [cls, rate] : picks) {
    fig.series.push_back(
        {category_name(cls, rate),
         acceptance_[category_index(cls, rate)].series(kLo, kHi, min_n)});
  }
  return fig;
}

RtsFairness FigureAccumulator::rts_fairness() const {
  // §6.1 channel-access efficiency: deliveries per channel transmission the
  // sender had to make.  RTS users pay for every RTS as well as every DATA
  // attempt — that extra dependency is exactly why the paper finds the
  // mechanism unfair to its few adopters under congestion.
  RtsFairness fair;
  std::uint64_t rts_tx = 0, rts_acked = 0, other_tx = 0, other_acked = 0;
  // wlan-lint: allow(unordered-iteration) — accumulates commutative sums
  // and counts only; no output ordering derives from the visit order
  for (const auto& [addr, st] : senders_) {
    if (st.data_tx == 0) continue;
    if (st.uses_rtscts) {
      ++fair.rts_senders;
      rts_tx += st.data_tx + st.rts_tx;
      rts_acked += st.data_acked;
    } else {
      ++fair.other_senders;
      other_tx += st.data_tx;
      other_acked += st.data_acked;
    }
  }
  if (rts_tx) {
    fair.rts_delivery_ratio =
        static_cast<double>(rts_acked) / static_cast<double>(rts_tx);
  }
  if (other_tx) {
    fair.other_delivery_ratio =
        static_cast<double>(other_acked) / static_cast<double>(other_tx);
  }
  return fair;
}

double FigureAccumulator::knee_utilization() const {
  double best = 84.0, best_v = -1.0;
  for (int p = kLo; p <= kHi; ++p) {
    double sum = 0.0;
    int n = 0;
    for (int q = p - 2; q <= p + 2; ++q) {
      const double m = throughput_.mean(q);
      if (std::isfinite(m)) {
        sum += m;
        ++n;
      }
    }
    if (n && sum / n > best_v) {
      best_v = sum / n;
      best = p;
    }
  }
  return best;
}

std::string render_figure(const FigureSeries& fig) {
  std::ostringstream out;
  out << util::line_chart(fig.title, fig.x, fig.series);

  // Underlying numbers, decimated to every 5th utilization percent.
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{fig.x_label};
  for (const auto& s : fig.series) header.push_back(s.name);
  rows.push_back(header);
  for (std::size_t i = 0; i < fig.x.size(); i += 5) {
    std::vector<std::string> row{util::fmt(fig.x[i])};
    bool any = false;
    for (const auto& s : fig.series) {
      const double v = i < s.ys.size() ? s.ys[i] : NAN;
      if (std::isfinite(v)) {
        row.push_back(util::fmt(v));
        any = true;
      } else {
        row.push_back("-");
      }
    }
    if (any) rows.push_back(row);
  }
  out << util::text_table(rows);
  return out.str();
}

void write_figure_csv(const FigureSeries& fig, const std::string& path) {
  std::vector<std::string> header{fig.x_label};
  for (const auto& s : fig.series) header.push_back(s.name);
  util::CsvWriter csv(path, header);
  for (std::size_t i = 0; i < fig.x.size(); ++i) {
    std::vector<double> row{fig.x[i]};
    bool any = false;
    for (const auto& s : fig.series) {
      const double v = i < s.ys.size() ? s.ys[i] : NAN;
      row.push_back(v);
      if (std::isfinite(v)) any = true;
    }
    if (any) csv.row(row);
  }
}

void write_seconds_csv(const AnalysisResult& a, const std::string& path) {
  SecondsCsvSink sink(path);
  for (const SecondStats& s : a.seconds) sink.on_second(s);
}

}  // namespace wlan::core
