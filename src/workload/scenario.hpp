// Scenario builders: the IETF day/plenary sessions and the single-cell
// load-sweep fixture the figure benches use.
//
// Layer contract (workload): a scenario composes a floorplan, a user
// population with traffic models, and a sim::NetworkConfig, runs the
// simulation, and hands out the *sniffer captures* (plus ground truth for
// tests that set keep_ground_truth).  This is the only layer that drives
// sim; everything downstream consumes the captures.  New scenarios plug in
// here — see docs/ARCHITECTURE.md ("Extension points").
#pragma once

#include <memory>
#include <string>

#include "sim/network.hpp"
#include "trace/merge.hpp"
#include "util/log_histogram.hpp"
#include "workload/churn.hpp"
#include "workload/floorplan.hpp"
#include "workload/traffic.hpp"
#include "workload/user.hpp"

namespace wlan::workload {

/// Table 1 metadata for a data set (bench/tab1 prints these).
struct DataSetInfo {
  std::string name;
  std::string date;
  std::vector<std::uint8_t> channels;
  std::string time_range;
};

/// Inherits the engine settings (shards, reference engine) that pass
/// straight through to sim::NetworkConfig.
struct ScenarioConfig : sim::EngineOptions {
  std::uint64_t seed = 1;
  double duration_s = 180.0;
  /// Scales AP count and peak population relative to IETF62 (1.0 = 38
  /// physical APs / 523 peak users; benches default to a laptop-friendly
  /// fraction).  The *shape* of every figure is scale-invariant.
  double scale = 0.2;
  TrafficProfile profile;
  double rtscts_fraction = 0.03;
  rate::ControllerConfig rate;
  mac::TimingProfile timing = mac::TimingProfile::kPaper;

  // --- population dynamics -------------------------------------------------
  /// > 0 switches the session from the classic fixed-curve UserManager to
  /// the dynamic ChurnProcess: attendees arrive as a Poisson process at
  /// `churn_turnover_per_min` * (scaled peak population) / 60 arrivals per
  /// second, dwell lognormally (mean chosen by Little's law so the
  /// steady-state population matches the scaled peak), roam between APs,
  /// and are torn down — link ids recycled — when they leave.  Expressed as
  /// population turnover so sweeping it varies churn intensity at constant
  /// expected load.
  double churn_turnover_per_min = 0.0;
  double churn_roam_mean_s = 20.0;
  double churn_move_probability = 0.5;
};

/// A built session: network + population dynamics + metadata.
class Scenario {
 public:
  static Scenario day(const ScenarioConfig& config);
  static Scenario plenary(const ScenarioConfig& config);

  /// Runs the full configured duration.
  void run();

  /// Deposits the finished run's counters into `m`: the network's and,
  /// with churn, the population process's.  Call once, after run() — the
  /// counters are cumulative.
  void harvest_metrics(obs::Metrics& m) const;

  [[nodiscard]] sim::Network& network() { return *net_; }
  [[nodiscard]] const FloorPlan& floorplan() const { return plan_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Microseconds duration() const { return duration_; }
  /// Fixed-population manager; only present when churn is disabled.
  [[nodiscard]] const UserManager& users() const { return *users_; }
  /// Dynamic-population process; only present when churn is enabled
  /// (ScenarioConfig::churn_turnover_per_min > 0).
  [[nodiscard]] bool has_churn() const { return churn_ != nullptr; }
  [[nodiscard]] const ChurnProcess& churn() const { return *churn_; }

  /// Paper Table 1 rows for both sessions.
  [[nodiscard]] static std::vector<DataSetInfo> table1();

 private:
  Scenario() = default;
  static Scenario build(const ScenarioConfig& config, SessionKind kind);

  std::string name_;
  FloorPlan plan_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<UserManager> users_;
  std::unique_ptr<ChurnProcess> churn_;
  Microseconds duration_{0};
};

/// Single-collision-domain fixture for utilization sweeps (Figures 6-15):
/// one channel, a couple of APs, `num_users` always-on users.  Sweeping
/// `num_users` (or profile.mean_pps) moves the cell across the whole 30-99%
/// utilization range.  Inherits the engine settings like ScenarioConfig.
struct CellConfig : sim::EngineOptions {
  std::uint64_t seed = 1;
  int num_aps = 2;
  int num_users = 30;
  TrafficProfile profile{.mean_pps = 5.0};  ///< every user's traffic
  double rtscts_fraction = 0.05;
  rate::ControllerConfig rate;
  mac::TimingProfile timing = mac::TimingProfile::kPaper;
  double duration_s = 25.0;
  double warmup_s = 3.0;  ///< stripped from the returned trace
  /// Fraction of users placed in the room's outer ring, where SNR is
  /// marginal and rate adaptation genuinely drops to 1-2 Mbps.  This is the
  /// knob that moves a cell into the paper's >84%-utilization regime: slow
  /// frames occupy most of each second (§6.2).
  double far_fraction = 0.15;
  /// When >= 0, clients apply transmit power control: boost toward the
  /// 11 Mbps SNR threshold plus this margin (paper §7's remedy).
  double auto_power_margin_db = -1.0;
  double sniffer_capacity_fps = 2500.0;
  /// Sniffers watching the cell, all on the cell channel.  1 (default)
  /// keeps the historic single-sniffer fixture byte-for-byte; more spreads
  /// extra sniffers across the room with skewed clocks, and the returned
  /// trace is the clock-corrected, deduplicated trace::merge of their
  /// captures — the paper's multi-sniffer pipeline end to end.
  int num_sniffers = 1;
  /// Clock skew of sniffer j relative to sniffer 0 (the reference):
  /// j * sniffer_clock_skew_us.  Only applied when num_sniffers > 1.
  std::int64_t sniffer_clock_skew_us = 1500;
};

struct CellResult {
  trace::Trace trace;                        ///< sniffer view, warmup removed
  /// Omniscient log, warmup removed; empty unless keep_ground_truth.
  std::vector<trace::TxRecord> ground_truth;
  std::uint64_t medium_transmissions = 0;
  std::uint64_t medium_collisions = 0;
  sim::SnifferStats sniffer;                 ///< sniffer 0's loss breakdown
  double duration_s = 0.0;                   ///< post-warmup length
  /// Multi-sniffer capture (num_sniffers > 1): the raw per-sniffer traces
  /// exactly as each sniffer wrote them (skewed clocks, full duration), and
  /// what the merge recovered.  Empty / zero for the single-sniffer fixture.
  std::vector<trace::Trace> sniffer_traces;
  trace::ClockOffsets clock_offsets;
  trace::MergeStats merge_stats;
  /// Per-frame delay components (paper §6): time spent queued behind other
  /// frames and head-of-line service time (first contention to final ACK /
  /// drop), microseconds, over every delivered unicast data frame.
  util::LogHistogram queue_delay;
  util::LogHistogram service_delay;
};

/// Builds, runs and harvests a cell (self-contained; used by benches/tests).
CellResult run_cell(const CellConfig& config);

/// Hidden-terminal fixture: one channel, a single AP in the cell centre
/// whose carrier sense spans both sides (sense mask 0b11), and two user
/// groups at opposite corners on disjoint masks 0b01 / 0b10.  Each group
/// hears — and defers to — the AP, but the groups cannot sense each other,
/// so simultaneous uplinks collide at the AP exactly as the classic
/// hidden-node experiment predicts.  `rtscts_fraction` is the remedy knob:
/// at 1.0 the RTS/CTS exchange serialises the two sides through the AP's
/// CTS.  All other CellConfig fields keep their run_cell meaning
/// (num_aps/far_fraction are ignored).
CellResult run_hidden_terminal(const CellConfig& config);

}  // namespace wlan::workload
