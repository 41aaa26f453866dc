// User sessions and population dynamics.
//
// A UserSession is one conference attendee: a client station that joins at
// some time, associates with the best AP (strongest signal, least-loaded
// virtual AP — the Airespace load-balancing observable), generates two-way
// traffic while present, and disassociates on departure.
//
// The UserManager spawns/retires sessions so the instantaneous population
// tracks a target curve — this is what produces the Figure 4(b) user-count
// time series and the Figure 5(a/b) utilization dynamics.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/network.hpp"
#include "workload/traffic.hpp"

namespace wlan::workload {

/// The most transmit power control raises a client's power, dB.
inline constexpr double kMaxPowerBoostDb = 12.0;

struct UserSpec {
  phy::Position position;
  Microseconds join{0};
  Microseconds leave = Microseconds::never();
  TrafficProfile profile;
  bool use_rtscts = false;
  rate::ControllerConfig rate;
  /// Carrier-sense domain bits for the client radio (see
  /// sim::MacEntity::sense_mask).  Default: the single collision domain.
  std::uint32_t sense_mask = 1;
  /// Transmit power control (§7's alternative remedy): when >= 0, the
  /// client raises its transmit power so the uplink supports 11 Mbps with
  /// this much margin (dB), up to kMaxPowerBoostDb.
  double auto_power_margin_db = -1.0;
  /// Tear the station down for real on departure/relocation
  /// (Network::remove_station — link id recycled, memory freed).  Off by
  /// default: the classic fixed-population scenarios keep departed radios
  /// registered, and their frozen trajectories depend on that.
  bool remove_on_depart = false;
};

class UserSession {
 public:
  UserSession(sim::Network& net, const UserSpec& spec, std::uint64_t seed);

  UserSession(const UserSession&) = delete;
  UserSession& operator=(const UserSession&) = delete;

  [[nodiscard]] bool associated() const { return associated_; }
  [[nodiscard]] bool departed() const { return departed_; }
  [[nodiscard]] const sim::Station* station() const { return station_; }

  /// Disassociates and shuts the station down (called by the UserManager
  /// when the population curve demands departures).
  void depart();

  /// The attendee walks to `pos` (a new radio environment).  Because link
  /// budgets are frozen per position, the move retires the old station
  /// (recycling its link id) and brings up a fresh one, then re-associates:
  /// to the *strongest* AP if the current AP's signal at the new position
  /// has fallen more than `hysteresis_db` below the best candidate's —
  /// 802.11 roaming — and to the current AP otherwise.  Returns true when
  /// the AP changed (a roam), false otherwise; no-op before the first
  /// association or after departure.
  bool relocate(const phy::Position& pos, double hysteresis_db);

  [[nodiscard]] const sim::AccessPoint* ap() const { return ap_; }

 private:
  void join();
  void associate();
  /// Creates the station on ap_'s channel; `reuse_addr` keeps the MAC
  /// identity across relocations (kNoAddr = allocate a fresh one).
  void bring_up_station(mac::Addr reuse_addr = mac::kNoAddr);
  /// Shuts the current station down and (churn mode) schedules its real
  /// removal; `deregister_ap` additionally ages the client out of that
  /// AP's controller state — wanted on departure and roam-away, NOT on a
  /// same-AP move (the re-association would be wiped).
  void retire_station(sim::AccessPoint* deregister_ap);
  void on_station_payload(const mac::Frame& frame);
  void start_traffic();
  /// Closed-loop clocking: send one packet in the given direction and
  /// re-arm on completion.
  void launch_flow(bool uplink);
  void send_closed_loop(bool uplink);
  /// Arms a traffic-chain think timer on the *station's channel* simulator
  /// — it only touches that channel's station/AP queues, so it belongs to
  /// the shard lane, not the control lane — and records the EventId so
  /// relocation/departure can cancel it.
  void arm_chain_timer(Microseconds delay, sim::Simulator::Callback fn);
  /// Cancels every armed chain timer of the current station generation.
  /// Required for sharding, not just hygiene: a stale closure left on the
  /// old channel's queue after a roam would touch this session while the
  /// new channel's events do — a cross-shard race.  It also makes a
  /// session-epoch check in the think timers unnecessary.
  void cancel_chain_timers();

  sim::Network& net_;
  UserSpec spec_;
  util::Rng rng_;
  sim::Station* station_ = nullptr;       // owned by the Network
  sim::AccessPoint* ap_ = nullptr;
  mac::Addr vap_ = mac::kNoAddr;
  bool associated_ = false;
  bool departed_ = false;
  int assoc_attempts_ = 0;
  /// Bumped on relocation/departure; the callbacks that are not cancelled
  /// with the chain timers (association retries, closed-loop completions)
  /// check it and die off, so each re-association restarts exactly one set
  /// of chains.
  std::uint64_t session_epoch_ = 0;
  /// Chain timers armed on chain_sim_ (the current station's channel
  /// simulator); pruned of fired ids as it grows, fully cancelled on
  /// relocation/departure.  See cancel_chain_timers().
  std::vector<sim::EventId> chain_timers_;
  sim::Simulator* chain_sim_ = nullptr;
};

/// Target population curve: simulated seconds -> desired user count.
using PopulationCurve = std::function<double(double)>;

struct UserManagerConfig {
  TrafficProfile profile;
  /// Fraction of users that enable RTS/CTS (paper: a small minority).
  double rtscts_fraction = 0.03;
  rate::ControllerConfig rate;
  /// Position generator for new arrivals.
  std::function<phy::Position(util::Rng&)> placement;
};

class UserManager {
 public:
  UserManager(sim::Network& net, UserManagerConfig config,
              PopulationCurve curve, Microseconds horizon);

  [[nodiscard]] std::size_t spawned() const { return sessions_.size(); }
  [[nodiscard]] std::size_t live() const;

 private:
  void tick();

  sim::Network& net_;
  UserManagerConfig config_;
  PopulationCurve curve_;
  Microseconds horizon_;
  util::Rng rng_;
  std::vector<std::unique_ptr<UserSession>> sessions_;
};

}  // namespace wlan::workload
