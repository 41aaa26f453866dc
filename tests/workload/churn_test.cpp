// workload::ChurnProcess basics: the arrival/dwell/mobility machinery is a
// pure function of its seed, populations settle near the Little's-law
// steady state, roaming actually switches APs, and departures tear stations
// down for real (Network::remove_station).
#include "workload/churn.hpp"

#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "trace/merge.hpp"
#include "workload/scenario.hpp"

namespace wlan::workload {
namespace {

ChurnConfig fast_churn(std::uint64_t seed) {
  ChurnConfig cfg;
  cfg.seed = seed;
  cfg.arrivals_per_s = 4.0;
  cfg.dwell_mean_s = 3.0;
  cfg.dwell_sigma = 0.6;
  cfg.roam_check_mean_s = 2.0;
  cfg.move_probability = 0.7;
  cfg.roam_hysteresis_db = 3.0;
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 40), rng.uniform_real(0, 40), 0};
  };
  return cfg;
}

sim::NetworkConfig one_channel_net(std::uint64_t seed) {
  sim::NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {6};
  return cfg;
}

struct RunStats {
  std::size_t arrivals = 0;
  std::size_t live = 0;
  std::size_t peak = 0;
  std::uint64_t moves = 0;
  std::uint64_t roams = 0;
  std::uint64_t frames = 0;
  std::size_t stations_left = 0;
};

RunStats run_once(std::uint64_t seed, double seconds) {
  sim::Network net(one_channel_net(9));
  net.add_ap({8, 8, 0}, 6).start_beacons();
  net.add_ap({32, 32, 0}, 6).start_beacons();
  ChurnProcess churn(net, fast_churn(seed),
                     Microseconds{static_cast<std::int64_t>(seconds * 1e6)});
  net.run_for(Microseconds{static_cast<std::int64_t>(seconds * 1e6)});
  RunStats s;
  s.arrivals = churn.arrivals();
  s.live = churn.live();
  s.peak = churn.peak_live();
  s.moves = churn.moves();
  s.roams = churn.roams();
  s.frames = net.channel(6).transmissions();
  s.stations_left = net.stations().size();
  return s;
}

TEST(ChurnProcessTest, DeterministicPerSeed) {
  const RunStats a = run_once(11, 20.0);
  const RunStats b = run_once(11, 20.0);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.roams, b.roams);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.stations_left, b.stations_left);

  const RunStats c = run_once(12, 20.0);
  // A different seed must reshuffle the process (arrival count is Poisson;
  // equal counts can happen, but the full tuple matching would be a broken
  // seed split).
  EXPECT_FALSE(a.arrivals == c.arrivals && a.moves == c.moves &&
               a.frames == c.frames);
}

TEST(ChurnProcessTest, PopulationTracksLittlesLawAndChurns) {
  const RunStats s = run_once(21, 30.0);
  // rate 4/s x dwell 3 s -> ~12 expected live; tolerate Poisson noise.
  EXPECT_GE(s.peak, 6u);
  EXPECT_LE(s.peak, 40u);
  // Real turnover: far more arrivals than ever concurrent.
  EXPECT_GT(s.arrivals, 2 * s.peak);
  EXPECT_GT(s.moves, 0u);
  EXPECT_GT(s.roams, 0u);  // two APs far apart + 0.7 move prob: roams happen
  EXPECT_GT(s.frames, 100u);
  // Departed stations are actually destroyed, not parked: what remains is
  // the live population plus at most the departures still inside the
  // 200 ms teardown grace.
  EXPECT_LE(s.stations_left, s.live + 8);
}

TEST(ChurnProcessTest, RoamKeepsMacAddressAndSwitchesAp) {
  sim::Network net(one_channel_net(3));
  sim::AccessPoint& near_ap = net.add_ap({5, 5, 0}, 6);
  near_ap.start_beacons();
  sim::AccessPoint& far_ap = net.add_ap({60, 60, 0}, 6);
  far_ap.start_beacons();

  UserSpec spec;
  spec.position = {4, 4, 0};
  spec.remove_on_depart = true;
  UserSession user(net, spec, 99);
  net.run_for(sec(3));
  ASSERT_TRUE(user.associated());
  ASSERT_EQ(user.ap(), &near_ap);
  const mac::Addr addr = user.station()->addr();

  // Walk across the hall: the far AP now dominates by far more than the
  // hysteresis, so this is a roam — with the same MAC, like real hardware.
  EXPECT_TRUE(user.relocate({59, 59, 0}, 6.0));
  EXPECT_EQ(user.ap(), &far_ap);
  ASSERT_NE(user.station(), nullptr);
  EXPECT_EQ(user.station()->addr(), addr);

  net.run_for(sec(3));  // re-associate + drain the old radio's teardown
  EXPECT_TRUE(user.associated());
  // A short hop within the near AP's cell is NOT a roam (hysteresis holds)
  // but still re-registers the radio at the new spot, keeping the MAC.
  EXPECT_FALSE(user.relocate({58, 58, 0}, 6.0));
  EXPECT_EQ(user.station()->addr(), addr);
}

TEST(ChurnScenarioTest, SessionVariantRunsAndRecycles) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration_s = 12.0;
  cfg.scale = 0.06;
  cfg.churn_turnover_per_min = 4.0;  // brisk: mean dwell 15 s

  Scenario scenario = Scenario::day(cfg);
  ASSERT_TRUE(scenario.has_churn());
  scenario.run();
  EXPECT_GT(scenario.churn().arrivals(), 0u);
  EXPECT_FALSE(
      trace::merge_sniffer_traces(scenario.network().sniffer_traces())
          .trace.records.empty());
}

}  // namespace
}  // namespace wlan::workload
