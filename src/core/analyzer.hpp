// TraceAnalyzer — the paper's measurement methodology in one pass.
//
// Consumes a time-sorted capture (exactly what the IETF sniffers produced)
// and computes, per one-second interval (§5.1 chooses one second as the
// granularity):
//   * channel busy-time and percentage utilization (Eqs. 7-8),
//   * throughput and goodput (§5.2),
//   * frame counts by type, by rate, and by the 16 size-rate categories,
//   * per-rate busy-time share and byte volume (Figs. 8-9),
//   * first-attempt acknowledgment counts per rate (Fig. 14),
//   * acceptance-delay samples per category (Fig. 15),
//   * RTS/CTS counts (Fig. 7) and per-sender fairness inputs (§6.1),
//   * the §4.4 unrecorded-frame estimate (Eq. 1, core/unrecorded.hpp).
//
// Layer contract (core): analyzers consume a trace::Trace and nothing else.
// The analyzer never reads simulator ground truth; everything is inferred
// from the capture the way the authors inferred it from tethereal logs, so
// the same code runs unchanged on real pcap captures (example_trace_tool).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/delay_components.hpp"
#include "core/frame_classes.hpp"
#include "core/unrecorded.hpp"
#include "trace/record.hpp"

namespace wlan::core {

/// Aggregates for one wall-clock second of the capture.
struct SecondStats {
  std::int64_t second = 0;  ///< seconds since trace start

  double cbt_us = 0.0;  ///< Eq. 7 total channel busy-time
  std::array<double, phy::kNumRates> cbt_us_by_rate{};  ///< Fig. 8

  std::uint64_t bits_all = 0;   ///< throughput numerator (§5.2)
  std::uint64_t bits_good = 0;  ///< goodput numerator (§5.2)
  std::array<std::uint64_t, phy::kNumRates> bytes_by_rate{};  ///< Fig. 9

  std::uint64_t data = 0;
  std::uint64_t ack = 0;
  std::uint64_t rts = 0;   ///< Fig. 7
  std::uint64_t cts = 0;   ///< Fig. 7
  std::uint64_t beacon = 0;
  std::uint64_t mgmt = 0;

  /// Data transmissions (first attempts + retries) per category, Figs 10-13.
  std::array<std::uint32_t, kNumCategories> tx_by_category{};
  /// Data frames ACKed on their first attempt, per rate (Fig. 14).
  std::array<std::uint32_t, phy::kNumRates> first_attempt_acked{};
  /// All data frames seen ACKed this second, per rate.
  std::array<std::uint32_t, phy::kNumRates> acked_by_rate{};
  /// Retransmitted data frames per rate (retry flag set).
  std::array<std::uint32_t, phy::kNumRates> retries_by_rate{};

  /// Folds another interval's tallies into this one (busy time, bits and
  /// every counter; `second` keeps this interval's value).  Used to collapse
  /// a whole run into one totals row and for parallel reductions.
  void merge(const SecondStats& other);

  /// Eq. 8: percentage utilization (clamped to 100).
  [[nodiscard]] double utilization() const {
    const double pct = cbt_us / 1e6 * 100.0;
    return pct > 100.0 ? 100.0 : pct;
  }

  [[nodiscard]] double throughput_mbps() const {
    return static_cast<double>(bits_all) / 1e6;
  }
  [[nodiscard]] double goodput_mbps() const {
    return static_cast<double>(bits_good) / 1e6;
  }
};

/// One acceptance-delay observation (Fig. 15).
struct AcceptanceSample {
  std::int64_t second = 0;      ///< second of the ACK
  std::size_t category = 0;     ///< category_index of the data frame
  double delay_us = 0.0;        ///< first transmission -> ACK recorded
};

/// Per-sender tallies for the §6.1 RTS/CTS fairness analysis.
struct SenderStats {
  std::uint64_t data_tx = 0;      ///< data transmissions incl. retries
  std::uint64_t data_acked = 0;   ///< distinct data frames seen ACKed
  std::uint64_t rts_tx = 0;
  bool uses_rtscts = false;
};

struct AnalysisResult {
  std::vector<SecondStats> seconds;
  std::vector<AcceptanceSample> acceptance;
  std::unordered_map<mac::Addr, SenderStats> senders;
  std::int64_t start_us = 0;

  std::uint64_t total_frames = 0;
  std::uint64_t total_data = 0;
  std::uint64_t total_acks = 0;
  std::uint64_t total_rts = 0;
  std::uint64_t total_cts = 0;
  /// §4.4 atomicity-rule estimate over every analyzed record.
  UnrecordedTotals unrecorded;

  [[nodiscard]] double duration_seconds() const {
    return static_cast<double>(seconds.size());
  }
};

struct AnalyzerConfig {
  DelayComponents delays = DelayComponents::paper();
};

class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(AnalyzerConfig config = {});

  /// Analyzes a time-sorted trace.  Records out of order by more than a few
  /// microseconds indicate an unmerged capture and throw std::invalid_argument.
  [[nodiscard]] AnalysisResult analyze(const trace::Trace& trace) const;

 private:
  AnalyzerConfig config_;
};

}  // namespace wlan::core
