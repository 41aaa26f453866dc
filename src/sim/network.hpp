// Network: owns the simulation kernels, propagation model, channels, nodes
// and sniffers, and provides the builder API the workload layer uses.
//
// Channel sharding (docs/ARCHITECTURE.md "Channel sharding"): the paper's
// three 802.11b channels are radio-orthogonal, so each Channel runs on its
// own Simulator and the only cross-channel interactions — user arrivals,
// roams, departures, population ticks — run on a separate *control* queue
// owned by the driver.  Network::run_for alternates parallel shard phases
// with serial control events under a watermark protocol that reproduces the
// single-queue execution order exactly; `EngineOptions::shards` is purely a
// worker-thread count and never changes any output byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mac/timing.hpp"
#include "obs/metrics.hpp"
#include "phy/propagation.hpp"
#include "sim/access_point.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/sniffer.hpp"
#include "sim/station.hpp"
#include "trace/record.hpp"

namespace wlan::sim {

/// Engine settings, declared once and inherited by every config that builds
/// a Network (NetworkConfig, workload::ScenarioConfig, workload::CellConfig),
/// so a caller copies them with one slice assignment.  No field ever
/// changes an output byte.
struct EngineOptions {
  /// The two reference engines the differential oracle suites run the
  /// production engine against; not performance modes.
  ///  * kScalarReception — every channel evaluates receptions on the
  ///    retained scalar per-receiver path instead of the batched SoA pass.
  ///  * kSingleQueue — every Channel aliases the one control Simulator
  ///    instead of owning a shard queue: the pre-sharding engine, one
  ///    totally-ordered queue.
  enum class Reference : std::uint8_t { kNone, kScalarReception, kSingleQueue };
  /// Threads for the parallel shard phases, the caller's own included:
  /// purely a thread count, clamped to [1, channels.size()] (1 runs the
  /// phases on the caller's thread and starts no worker).  More threads
  /// than cores (runner threads x shards) degrade gracefully: a phase
  /// wait yields its core while it polls, then parks.
  int shards = 1;
  Reference reference = Reference::kNone;
  /// Keeps every channel's ground-truth log (one trace::TxRecord per
  /// transmission), for tests that check the simulator against it.  Off,
  /// the logs stay empty: the analysis reads only the sniffer captures.
  bool keep_ground_truth = false;
};

struct NetworkConfig : EngineOptions {
  phy::PropagationConfig propagation;
  mac::TimingProfile timing_profile = mac::TimingProfile::kPaper;
  std::uint64_t seed = 1;
  // Non-overlapping 802.11b channels, as deployed at the IETF meeting.
  // Built element-wise rather than from a braced list to sidestep a GCC 12
  // -Wmaybe-uninitialized false positive on the initializer_list backing
  // array when this constructor is inlined at -O2.
  std::vector<std::uint8_t> channels = default_channels();

  static std::vector<std::uint8_t> default_channels() {
    std::vector<std::uint8_t> v(3);
    v[0] = 1;
    v[1] = 6;
    v[2] = 11;
    return v;
  }
  /// APs transmit hotter than client cards (enterprise APs run ~20 dBm
  /// against ~15 dBm PCMCIA radios), which keeps the ACK/beacon return
  /// path alive toward fringe clients.
  double ap_power_offset_db = 5.0;
};

class Network {
 public:
  explicit Network(const NetworkConfig& config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The control-lane simulator: user lifecycle, population ticks, roaming.
  /// In single_queue mode this is also every channel's queue.  Scheduling
  /// here is only legal from outside run_for or from another control event
  /// (never from a channel's own events — asserted in Debug builds).
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const mac::Timing& timing() const { return timing_; }
  [[nodiscard]] const phy::Propagation& propagation() const { return prop_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// The channel object for an 802.11b channel number; throws if the channel
  /// was not in NetworkConfig::channels.
  [[nodiscard]] Channel& channel(std::uint8_t number);

  [[nodiscard]] const std::vector<std::uint8_t>& channel_numbers() const {
    return channel_numbers_;
  }

  /// Creates an AP radio on `channel_no` with `num_vaps` virtual APs.
  /// `sense_mask` places the AP's carrier sense (see MacEntity::sense_mask);
  /// the default keeps everyone in the paper's single collision domain.
  AccessPoint& add_ap(const phy::Position& where, std::uint8_t channel_no,
                      int num_vaps = 4, std::uint32_t sense_mask = 1);

  /// Creates a client station on `channel_no`.
  Station& add_station(std::uint8_t channel_no, const StationConfig& config);

  /// Destroys a departed station: unregisters it from its channel (its link
  /// id recycles once no in-flight frame references it) and frees the
  /// object, so long-running churn keeps memory proportional to the
  /// concurrent population.  Contract: call at least one maximum frame
  /// exchange (~20 ms simulated) after Station::shutdown() — shutdown stops
  /// new self-referencing events, but SIFS responses and response timeouts
  /// already scheduled still fire within that window.  The workload layer's
  /// departure path waits 100 ms.
  void remove_station(Station* station);

  Sniffer& add_sniffer(const SnifferConfig& config);

  /// Association decision (paper §4.1: strongest AP, least-loaded VAP).
  struct ApChoice {
    AccessPoint* ap = nullptr;
    mac::Addr vap = mac::kNoAddr;
    std::uint8_t channel = 0;
  };
  [[nodiscard]] ApChoice choose_ap(const phy::Position& where);

  void run_for(Microseconds duration);

  /// A copy of every sniffer's capture, in sniffer order; merge them with
  /// trace::merge_sniffer_traces.
  [[nodiscard]] std::vector<trace::Trace> sniffer_traces() const;
  /// Every channel's ground-truth log merged into one new vector, ordered
  /// by (end of air, channel index, position in the channel's log): the
  /// same order for any shard count, either reference engine, and any way
  /// of splitting the run into run_for calls.  Empty unless
  /// EngineOptions::keep_ground_truth was set.
  [[nodiscard]] std::vector<trace::TxRecord> ground_truth() const;

  [[nodiscard]] const std::vector<std::unique_ptr<AccessPoint>>& aps() const {
    return aps_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Station>>& stations() const {
    return stations_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Sniffer>>& sniffers() const {
    return sniffers_;
  }

  /// Deposits the whole network's work counters into `m`: event-kernel
  /// totals, every channel's reception/cache telemetry, and the sniffer
  /// capture pipeline.  Call once, after the run finishes — counters are
  /// cumulative, so harvesting twice would double-count the kSum entries.
  void harvest_metrics(obs::Metrics& m) const;

  /// Folds every channel's per-frame delay histograms (queueing wait and
  /// head-of-line service time, microseconds) into the caller's
  /// accumulators.  Like harvest_metrics: call once, after the run.
  void harvest_delays(util::LogHistogram& queue_delay,
                      util::LogHistogram& service_delay) const;

  /// Next free MAC address.  Addresses released by remove_station recycle
  /// (FIFO, so a recycled address rests as long as possible before reuse),
  /// keeping consumption bounded by the concurrent population — the 16-bit
  /// space would otherwise wrap within a few simulated hours of churn.
  /// Throws on true exhaustion rather than silently colliding with the
  /// kNoAddr/kBroadcast sentinels.
  [[nodiscard]] mac::Addr allocate_addr();

 private:
  /// Captures the per-shard watermark vector for every control-lane
  /// schedule; installed on sim_'s queue in sharded mode.
  static void observe_control_schedule(void* ctx, Microseconds at,
                                       std::uint64_t seq);
  /// Runs one parallel phase: every shard up to `until` (exclusive of
  /// events at `until` whose local sequence is >= its watermark when
  /// `marks` is set; inclusive of everything at `until` when null).
  void run_shard_phase(Microseconds until,
                       const std::vector<std::uint64_t>* marks);
  /// Participant p's share of the current phase: shards p, p + W, p + 2W...
  void run_shards(std::size_t participant);
  void worker_loop(std::size_t participant);

  Simulator sim_;  ///< control lane (and the only queue in single_queue mode)
  phy::Propagation prop_;
  mac::Timing timing_;
  util::Rng rng_;
  std::vector<std::uint8_t> channel_numbers_;
  std::vector<std::unique_ptr<Channel>> channels_;
  /// One shard simulator per channel; empty in single_queue mode (channels
  /// then share sim_).
  std::vector<std::unique_ptr<Simulator>> shard_sims_;
  /// Per-shard obs registers: shard i's events deposit here no matter which
  /// worker thread ran them, and harvest_metrics merges them in channel
  /// order — so the merged counters are independent of the thread count.
  std::vector<obs::Metrics> shard_metrics_;
  std::vector<std::unique_ptr<AccessPoint>> aps_;
  std::vector<std::unique_ptr<Station>> stations_;
  std::vector<std::unique_ptr<Sniffer>> sniffers_;
  /// Watermarks: control-event local sequence -> each shard queue's
  /// next_seq() sampled when that event was scheduled.  The vector answers
  /// "which shard events precede this control event in the single-queue
  /// total order" exactly (see run_for).
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> watermarks_;
  double ap_power_offset_db_ = 5.0;
  mac::Addr next_addr_ = 1;
  std::deque<mac::Addr> free_addrs_;  ///< released by remove_station
  bool single_queue_ = false;
  bool in_parallel_phase_ = false;

  // Phase gate (fork/join).  W = min(shards, channels) participants: the
  // thread in run_for is participant 0 and W - 1 workers are the rest.  The
  // driver forks a phase by storing pending_ = W - 1 and bumping
  // phase_epoch_ (release); a worker waits for the next epoch, runs its
  // share and decrements pending_ (acq_rel); the driver joins when pending_
  // reads 0 (acquire).  The epoch publishes the phase bound, the watermarks
  // and the stop flag, and the join publishes each participant's error;
  // all of them only change between phases.  Shard -> participant
  // assignment is static round-robin, so shard i's events always run under
  // shard_metrics_[i] whichever thread runs them.
  std::size_t participants_ = 1;
  std::atomic<std::uint32_t> phase_epoch_{0};
  std::atomic<std::uint32_t> pending_{0};
  Microseconds phase_until_{0};
  const std::vector<std::uint64_t>* phase_marks_ = nullptr;
  bool stop_ = false;
  /// A shard event's throw, per participant, rethrown by run_shard_phase
  /// once pending_ reads 0, so no worker is still running when the caller
  /// unwinds.
  std::vector<std::exception_ptr> phase_errors_;
  std::vector<std::thread> workers_;
};

}  // namespace wlan::sim
