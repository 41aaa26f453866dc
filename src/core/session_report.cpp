#include "core/session_report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/utilization.hpp"
#include "util/stats.hpp"

namespace wlan::core {

SessionSummary summarize(const AnalysisResult& analysis) {
  SessionSummary s;
  s.duration_s = analysis.duration_seconds();
  s.frames = analysis.total_frames;
  s.data = analysis.total_data;
  s.acks = analysis.total_acks;
  s.rts = analysis.total_rts;
  s.cts = analysis.total_cts;

  util::Accumulator util_acc, thr, good;
  UtilizationBinner binned_throughput;
  std::uint64_t retries = 0;
  for (const SecondStats& sec : analysis.seconds) {
    util_acc.add(sec.utilization());
    thr.add(sec.throughput_mbps());
    binned_throughput.add(sec.utilization(), sec.throughput_mbps());
    good.add(sec.goodput_mbps());
    for (phy::Rate r : phy::kAllRates) {
      const std::size_t i = phy::rate_index(r);
      s.busy_share_s[i] += sec.cbt_us_by_rate[i] / 1e6;
      s.bytes_per_s[i] += static_cast<double>(sec.bytes_by_rate[i]);
      retries += sec.retries_by_rate[i];
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(analysis.seconds.size()));
  for (double& v : s.busy_share_s) v /= n;
  for (double& v : s.bytes_per_s) v /= n;

  s.mean_utilization_pct = util_acc.mean();
  s.max_utilization_pct = util_acc.max();
  s.mean_throughput_mbps = thr.mean();
  s.mean_goodput_mbps = good.mean();
  s.peak_throughput_mbps = thr.max();
  s.retry_fraction =
      s.data ? static_cast<double>(retries) / static_cast<double>(s.data) : 0.0;

  const auto hist = utilization_histogram(analysis);
  if (const auto mode = hist.mode()) s.utilization_mode_pct = *mode;
  s.knee_utilization_pct = detect_saturation_knee(binned_throughput);

  s.congestion = breakdown(analysis);
  const CongestionBreakdown& c = s.congestion;
  // Ties go to the higher level.  With no classified second the default
  // kUncongested stands, as the 0% mean utilization says.
  if (c.uncongested + c.moderate + c.high > 0) {
    if (c.high >= c.moderate && c.high >= c.uncongested) {
      s.dominant_level = CongestionLevel::kHigh;
    } else if (c.moderate >= c.uncongested) {
      s.dominant_level = CongestionLevel::kModerate;
    }
  }

  s.unrecorded_pct = analysis.unrecorded.unrecorded_pct();
  return s;
}

std::string render_summary(const SessionSummary& s) {
  std::ostringstream out;
  char line[160];
  char knee[24] = "no knee";
  if (s.knee_utilization_pct) {
    std::snprintf(knee, sizeof knee, "knee %.0f%%", *s.knee_utilization_pct);
  }

  out << "=== session report (paper S5-S6 metrics) ===\n";
  std::snprintf(line, sizeof line,
                "capture      : %.0f s, %llu frames (%llu data, %llu ACK, "
                "%llu RTS, %llu CTS)\n",
                s.duration_s, static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.data),
                static_cast<unsigned long long>(s.acks),
                static_cast<unsigned long long>(s.rts),
                static_cast<unsigned long long>(s.cts));
  out << line;
  std::snprintf(line, sizeof line,
                "utilization  : mean %.1f%%, max %.1f%%, mode %.0f%% "
                "(Eq. 8, 1 s intervals)\n",
                s.mean_utilization_pct, s.max_utilization_pct,
                s.utilization_mode_pct);
  out << line;
  std::snprintf(line, sizeof line,
                "congestion   : %s (uncongested %llus / moderate %llus / "
                "high %llus; %s)\n",
                std::string(congestion_level_name(s.dominant_level)).c_str(),
                static_cast<unsigned long long>(s.congestion.uncongested),
                static_cast<unsigned long long>(s.congestion.moderate),
                static_cast<unsigned long long>(s.congestion.high), knee);
  out << line;
  std::snprintf(line, sizeof line,
                "throughput   : mean %.2f Mbps (peak %.2f), goodput %.2f Mbps\n",
                s.mean_throughput_mbps, s.peak_throughput_mbps,
                s.mean_goodput_mbps);
  out << line;
  std::snprintf(line, sizeof line,
                "airtime      : 1M %.2fs  2M %.2fs  5.5M %.2fs  11M %.2fs "
                "per second (Fig. 8)\n",
                s.busy_share_s[0], s.busy_share_s[1], s.busy_share_s[2],
                s.busy_share_s[3]);
  out << line;
  std::snprintf(line, sizeof line,
                "bytes/s      : 1M %.0f  2M %.0f  5.5M %.0f  11M %.0f (Fig. 9)\n",
                s.bytes_per_s[0], s.bytes_per_s[1], s.bytes_per_s[2],
                s.bytes_per_s[3]);
  out << line;
  std::snprintf(line, sizeof line,
                "health       : %.1f%% retransmitted data, %.1f%% unrecorded "
                "frames (S4.4 estimate)\n",
                100.0 * s.retry_fraction, s.unrecorded_pct);
  out << line;
  return out.str();
}

}  // namespace wlan::core
