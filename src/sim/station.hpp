// A transmitting MAC entity: the DCF state machine shared by client
// stations and access points (an AP is a Station with extra behaviour).
//
// Implements the paper's Figure 1 sequences:
//   CSMA/CA:   BO DIFS DATA  SIFS ACK
//   RTS/CTS:   BO DIFS RTS SIFS CTS SIFS DATA SIFS ACK
// with exponential backoff, retry limits, and pluggable rate adaptation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mac/backoff.hpp"
#include "mac/frame.hpp"
#include "rate/rate_controller.hpp"
#include "sim/channel.hpp"
#include "sim/node.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace wlan::sim {

/// An outbound MAC service data unit waiting in the transmit queue.
struct Packet {
  mac::Addr dst = mac::kNoAddr;
  std::uint32_t payload = 0;                       ///< bytes (0 for mgmt)
  mac::FrameType type = mac::FrameType::kData;
  mac::Addr bssid = mac::kNoAddr;
  Microseconds enqueued{0};
  /// Completion callback: invoked once with true (ACKed) or false (dropped
  /// after retries, tail-dropped, or discarded at shutdown).  Closed-loop
  /// traffic sources use this to clock their next send.
  std::function<void(bool delivered)> on_complete;
};

struct StationConfig {
  phy::Position position;
  bool use_rtscts = false;
  /// Payload size at/above which RTS precedes DATA (0 = always when enabled).
  std::uint32_t rts_threshold = 0;
  rate::ControllerConfig rate;
  std::size_t queue_limit = 64;   ///< tail-drop beyond this
  /// Transmit power delta vs. the propagation default, in dB (§7's TPC).
  double tx_power_offset_db = 0.0;
  /// MAC fragmentation threshold in payload bytes (0 = disabled).  Payloads
  /// above it are sent as a SIFS-separated burst of fragments, each
  /// individually acknowledged — the classic 802.11 remedy for noisy links
  /// (cf. the frame-size optimizations of the paper's related work).
  std::uint32_t frag_threshold = 0;
  /// Carrier-sense domain bits (see MacEntity::sense_mask): this station
  /// contends in every domain whose bit is set.  The default single shared
  /// domain models one collision domain; hidden-terminal topologies give
  /// mutually-deaf groups disjoint bits and the shared receiver the union.
  std::uint32_t sense_mask = 1;
  /// Unset, Network::add_station draws one from the network's stream; a
  /// station built outside a network uses 1.
  std::optional<std::uint64_t> seed;
  /// kNoAddr lets the network allocate; a relocating user passes its old
  /// station's address so the client keeps one MAC identity across roams
  /// (as real hardware does).
  mac::Addr addr = mac::kNoAddr;
};

/// Counters exposed for tests and benches (ground truth, not sniffed).
struct StationStats {
  std::uint64_t enqueued = 0;
  std::uint64_t queue_drops = 0;    ///< tail drops (queue full)
  std::uint64_t delivered = 0;      ///< ACKed data/mgmt packets
  std::uint64_t retry_drops = 0;    ///< abandoned after retry limit
  std::uint64_t tx_attempts = 0;    ///< DATA transmissions incl. retries
  std::uint64_t rts_sent = 0;
  std::uint64_t ack_timeouts = 0;
};

class Station : public MacEntity {
 public:
  Station(Channel& channel, mac::Addr address, const StationConfig& config);
  ~Station() override;

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  /// Queues an outbound packet; tail-drops when the queue is full.
  void enqueue(Packet packet);

  /// Stops transmitting and leaves the contention set (user departure).
  void shutdown();

  // MacEntity
  void access_granted() override;
  void on_receive(const mac::Frame& frame, double snr_db) override;
  [[nodiscard]] phy::Position position() const override { return config_.position; }
  [[nodiscard]] mac::Addr addr() const override { return addr_; }
  [[nodiscard]] double tx_power_offset_db() const override {
    return config_.tx_power_offset_db;
  }
  [[nodiscard]] std::uint32_t sense_mask() const override {
    return config_.sense_mask;
  }

  /// Adjusts transmit power at runtime (transmit power control).
  void set_tx_power_offset_db(double db) { config_.tx_power_offset_db = db; }

  /// Drops the per-peer rate-controller state for a departed peer (the AP
  /// calls this on Disassoc), so a node's adaptation state stays bounded by
  /// its concurrent peer set under churn.  Recreated on demand if the peer
  /// reappears.  Skipped while a queued packet still targets the peer (its
  /// retries must continue from the adapted state).
  void forget_peer(mac::Addr peer);

  /// Stronger controller-plane cleanup for a peer that is gone for good
  /// (AccessPoint::deregister_client): fails out queued not-yet-in-flight
  /// packets to the peer — they would only burn airtime on doomed retries —
  /// then forgets its controller.  The current head, if mid-exchange toward
  /// the peer, drains through the retry limit untouched.
  void purge_peer(mac::Addr peer);

  [[nodiscard]] const StationStats& stats() const { return stats_; }
  [[nodiscard]] Channel& channel() { return channel_; }

  /// Observer for received payload frames (the workload layer uses this to
  /// see AssocResp and downlink data).  Not called for control frames.
  void set_payload_handler(std::function<void(const mac::Frame&)> handler) {
    payload_handler_ = std::move(handler);
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool active() const { return active_; }

 protected:
  /// Hook for AP subclass: a unicast data/mgmt frame arrived for us.
  virtual void on_payload(const mac::Frame& frame, double snr_db);

  /// APs answer to their virtual-AP BSSIDs as well as their primary address.
  [[nodiscard]] virtual bool owns_addr(mac::Addr a) const { return a == addr_; }

  const StationConfig& config() const { return config_; }
  util::Rng& rng() { return rng_; }

 private:
  enum class State : std::uint8_t {
    kIdle,       ///< nothing queued
    kContending, ///< in the channel's contention set
    kWaitCts,    ///< RTS sent, waiting for CTS
    kWaitAck,    ///< DATA sent, waiting for ACK
  };

  void start_contention();
  void transmit_head();
  void send_data_frame();
  /// Rate controller for the link toward `peer` (APs adapt per client).
  rate::RateController& controller_for(mac::Addr peer);
  /// Reports the current head's just-resolved attempt (ACKed or failed) to
  /// its controller as a TxFeedback.
  void report_tx_outcome(bool success);
  void on_cts_timeout();
  void on_ack_timeout();
  void attempt_failed();
  void finish_head(bool delivered);
  [[nodiscard]] std::optional<double> snr_hint(mac::Addr peer) const;

  Channel& channel_;
  mac::Addr addr_;
  StationConfig config_;
  util::Rng rng_;
  mac::Backoff backoff_;
  /// Per-peer rate controllers: flat index on the per-frame path, ownership
  /// in a side vector (APs adapt per client; stations usually hold one).
  util::FlatMap<mac::Addr, rate::RateController*, mac::kBroadcast>
      controller_index_;
  std::vector<std::unique_ptr<rate::RateController>> controllers_;

  std::deque<Packet> queue_;
  State state_ = State::kIdle;
  bool active_ = true;
  std::uint32_t attempt_ = 0;      ///< retries of the current (fragment) PDU
  std::uint32_t frag_sent_ = 0;    ///< head-packet bytes already delivered
  std::uint32_t fragment_bytes_ = 0;  ///< size of the fragment now in flight
  std::uint16_t next_seq_ = 0;
  phy::Rate current_rate_ = phy::Rate::kR11;
  /// Retry chain planned for the current head frame; attempts index into
  /// it.  Single-attempt plans (the legacy policies) exhaust on every
  /// failure, so the controller re-decides before each retry.  Empty until
  /// a data head is planned, and reset when the head finishes.
  rate::TxPlan plan_;
  std::uint32_t plan_attempt_ = 0;
  /// First-contention timestamp of the current head, for the queueing vs
  /// head-of-line delay split (paper §6 delay components).
  Microseconds head_service_start_{0};
  bool head_in_service_ = false;
  /// Cancelled without a pending check: Simulator::cancel on an event that
  /// already ran or was cancelled does nothing.
  EventId response_timer_{};
  EventId sifs_timer_{};

  std::function<void(const mac::Frame&)> payload_handler_;
  StationStats stats_;
};

}  // namespace wlan::sim
