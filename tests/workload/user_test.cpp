#include "workload/user.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/traffic.hpp"

namespace wlan::workload {
namespace {

sim::NetworkConfig small_net(std::uint64_t seed = 51) {
  sim::NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {6};
  cfg.propagation.shadowing_sigma_db = 0.0;
  cfg.keep_ground_truth = true;
  return cfg;
}

UserSpec basic_spec() {
  UserSpec spec;
  spec.position = {8, 8, 0};
  spec.join = Microseconds{0};
  spec.profile.mean_pps = 20.0;
  return spec;
}

TEST(UserSessionTest, AssociatesViaHandshake) {
  sim::Network net(small_net());
  net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 99);
  EXPECT_FALSE(user.associated());
  net.run_for(sec(1));
  EXPECT_TRUE(user.associated());
  ASSERT_NE(user.station(), nullptr);
  EXPECT_TRUE(user.station()->active());
}

TEST(UserSessionTest, AssociationVisibleAtAp) {
  sim::Network net(small_net());
  auto& ap = net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 99);
  net.run_for(sec(1));
  EXPECT_EQ(ap.association_count(), 1u);
}

TEST(UserSessionTest, GeneratesTwoWayTraffic) {
  sim::Network net(small_net(53));
  net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(5));
  const auto& gt = net.ground_truth();
  const mac::Addr sta = user.station()->addr();
  bool uplink = false, downlink = false;
  for (const auto& r : gt) {
    if (r.type != mac::FrameType::kData) continue;
    uplink |= r.src == sta;
    downlink |= r.dst == sta;
  }
  EXPECT_TRUE(uplink);
  EXPECT_TRUE(downlink);
}

TEST(UserSessionTest, DepartSendsDisassocAndShutsDown) {
  sim::Network net(small_net(55));
  auto& ap = net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(2));
  ASSERT_TRUE(user.associated());
  user.depart();
  net.run_for(sec(1));
  EXPECT_TRUE(user.departed());
  EXPECT_FALSE(user.station()->active());
  EXPECT_EQ(ap.association_count(), 0u);  // disassoc received
  const auto& gt = net.ground_truth();
  EXPECT_TRUE(std::any_of(gt.begin(), gt.end(), [](const auto& r) {
    return r.type == mac::FrameType::kDisassoc;
  }));
}

TEST(UserSessionTest, NoTrafficAfterDeparture) {
  sim::Network net(small_net(57));
  net.add_ap({5, 5, 0}, 6);
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(2));
  user.depart();
  net.run_for(sec(1));
  const mac::Addr sta = user.station()->addr();
  const auto boundary = net.simulator().now() - sec(1) + msec(200);
  const auto gt = net.ground_truth();
  ASSERT_FALSE(gt.empty());
  for (const auto& r : gt) {
    if (r.src == sta && Microseconds{r.time_us} > boundary) {
      FAIL() << "station transmitted after departure at " << r.time_us;
    }
  }
}

TEST(UserSessionTest, ScheduledLeaveHonoured) {
  sim::Network net(small_net(59));
  net.add_ap({5, 5, 0}, 6);
  UserSpec spec = basic_spec();
  spec.leave = sec(2);
  UserSession user(net, spec, 7);
  net.run_for(sec(3));
  EXPECT_TRUE(user.departed());
}

TEST(UserSessionTest, JoinsWithoutAnyApRetriesGracefully) {
  sim::Network net(small_net(61));
  UserSession user(net, basic_spec(), 7);
  net.run_for(sec(3));  // no AP at all: never associates, never crashes
  EXPECT_FALSE(user.associated());
}

// Closed-loop clocking keeps at most `window` uplink packets outstanding, so
// the station's queue stays within the window however fast the user sends:
// at 1000 pps an unclocked source would fill it to its tail-drop limit.
class UserWindowTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UserWindowTest, QueueDepthStaysWithinWindow) {
  const std::uint32_t window = GetParam();
  sim::Network net(small_net());
  net.add_ap({5, 5, 0}, 6);
  UserSpec spec;
  spec.position = {8, 8, 0};
  spec.profile = TrafficProfile{};
  spec.profile.mean_pps = 1000.0;
  spec.profile.window = window;
  UserSession user(net, spec, 7);
  for (int ms = 10; ms <= 10'000; ms += 10) {
    net.run_for(msec(10));
    ASSERT_NE(user.station(), nullptr);
    ASSERT_LE(user.station()->queue_depth(), window) << "at " << ms << " ms";
  }
  EXPECT_TRUE(user.associated());
  EXPECT_GT(user.station()->stats().delivered, 1000u);  // traffic flowed
}

INSTANTIATE_TEST_SUITE_P(Windows, UserWindowTest, ::testing::Values(1u, 2u));

TEST(UserManagerTest, PopulationTracksCurve) {
  sim::Network net(small_net(63));
  net.add_ap({5, 5, 0}, 6);
  UserManagerConfig cfg;
  cfg.profile.mean_pps = 2.0;
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 10), rng.uniform_real(0, 10), 0};
  };
  UserManager manager(net, cfg, [](double t) { return t < 5 ? 4.0 : 8.0; },
                      sec(12));
  net.run_for(sec(3));
  EXPECT_EQ(manager.live(), 4u);
  net.run_for(sec(5));
  EXPECT_EQ(manager.live(), 8u);
}

TEST(UserManagerTest, PopulationShrinksOnDecline) {
  sim::Network net(small_net(65));
  net.add_ap({5, 5, 0}, 6);
  UserManagerConfig cfg;
  cfg.profile.mean_pps = 2.0;
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 10), rng.uniform_real(0, 10), 0};
  };
  UserManager manager(net, cfg, [](double t) { return t < 5 ? 6.0 : 2.0; },
                      sec(12));
  net.run_for(sec(4));
  EXPECT_EQ(manager.live(), 6u);
  net.run_for(sec(4));
  EXPECT_EQ(manager.live(), 2u);
  EXPECT_EQ(manager.spawned(), 6u);  // departures, not deletions
  // Departed radios are powered off but stay registered: the frozen
  // fixed-curve goldens depend on that.  Real teardown is the churn
  // sessions' (churn_test, churn_stress_test).
  EXPECT_EQ(net.stations().size(), 6u);
}

TEST(UserManagerTest, RtsCtsFractionRoughlyHonoured) {
  sim::Network net(small_net(67));
  net.add_ap({25, 25, 0}, 6);
  UserManagerConfig cfg;
  cfg.profile.mean_pps = 1.0;
  cfg.rtscts_fraction = 1.0;  // everyone
  cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(20, 30), rng.uniform_real(20, 30), 0};
  };
  UserManager manager(net, cfg, [](double) { return 5.0; }, sec(10));
  net.run_for(sec(6));
  // With RTS/CTS universal, RTS frames must appear in the ground truth.
  const auto& gt = net.ground_truth();
  EXPECT_TRUE(std::any_of(gt.begin(), gt.end(), [](const auto& r) {
    return r.type == mac::FrameType::kRts;
  }));
}

}  // namespace
}  // namespace wlan::workload
