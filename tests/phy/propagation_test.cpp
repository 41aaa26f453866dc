#include "phy/propagation.hpp"

#include <gtest/gtest.h>

namespace wlan::phy {
namespace {

PropagationConfig no_shadow() {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  return cfg;
}

TEST(PositionTest, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0, 0}, {3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1, 0}, {1, 1, 2}), 0.0);  // floors ignored
}

TEST(PropagationTest, PowerDecreasesWithDistance) {
  Propagation prop(no_shadow());
  const Position tx{0, 0, 0};
  double prev = prop.rx_power_dbm(tx, {2, 0, 0});
  for (double d : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    const double p = prop.rx_power_dbm(tx, {d, 0, 0});
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(PropagationTest, ReferenceLossAtOneMetre) {
  Propagation prop(no_shadow());
  // Distances under 1 m clamp to 1 m: tx_power - reference_loss.
  EXPECT_DOUBLE_EQ(prop.rx_power_dbm({0, 0, 0}, {0.5, 0, 0}),
                   kTxPowerDbm - kReferenceLossDb);
}

TEST(PropagationTest, PathLossExponentSlope) {
  auto cfg = no_shadow();
  cfg.path_loss_exponent = 3.0;
  Propagation prop(cfg);
  const double p10 = prop.rx_power_dbm({0, 0, 0}, {10, 0, 0});
  const double p100 = prop.rx_power_dbm({0, 0, 0}, {100, 0, 0});
  EXPECT_NEAR(p10 - p100, 30.0, 1e-9);  // 10n dB per decade
}

TEST(PropagationTest, FloorPenaltyApplied) {
  Propagation prop(no_shadow());
  const double same = prop.rx_power_dbm({0, 0, 0}, {10, 0, 0});
  const double above = prop.rx_power_dbm({0, 0, 0}, {10, 0, 1});
  const double two_up = prop.rx_power_dbm({0, 0, 0}, {10, 0, 2});
  EXPECT_NEAR(same - above, kFloorPenaltyDb, 1e-9);
  EXPECT_NEAR(same - two_up, 2 * kFloorPenaltyDb, 1e-9);
}

TEST(PropagationTest, SnrAgainstNoiseFloor) {
  Propagation prop(no_shadow());
  const Position a{0, 0, 0}, b{10, 0, 0};
  EXPECT_NEAR(prop.snr_db(a, b),
              prop.rx_power_dbm(a, b) - kNoiseFloorDbm, 1e-12);
}

TEST(PropagationTest, ReceivabilityThreshold) {
  Propagation prop(no_shadow());
  const Position tx{0, 0, 0};
  EXPECT_GE(prop.rx_power_dbm(tx, {5, 0, 0}), kMinRxDbm);
  // Very far away: below the sensitivity (with exponent 3, ~1 km is gone).
  EXPECT_LT(prop.rx_power_dbm(tx, {2000, 0, 0}), kMinRxDbm);
}

TEST(PropagationTest, ShadowingIsFrozenPerLink) {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 6.0;
  Propagation prop(cfg, 99);
  const Position a{3, 4, 0}, b{20, 9, 0};
  const double p1 = prop.rx_power_dbm(a, b);
  const double p2 = prop.rx_power_dbm(a, b);
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(PropagationTest, ShadowingIsSymmetric) {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 6.0;
  Propagation prop(cfg, 99);
  const Position a{3, 4, 0}, b{20, 9, 0};
  EXPECT_DOUBLE_EQ(prop.rx_power_dbm(a, b), prop.rx_power_dbm(b, a));
}

TEST(PropagationTest, ShadowingVariesAcrossLinks) {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 6.0;
  Propagation prop(cfg, 99);
  Propagation flat(no_shadow());
  // Same distance, different link -> generally different shadowing draw.
  const double d1 = prop.rx_power_dbm({0, 0, 0}, {10, 0, 0}) -
                    flat.rx_power_dbm({0, 0, 0}, {10, 0, 0});
  const double d2 = prop.rx_power_dbm({50, 7, 0}, {60, 7, 0}) -
                    flat.rx_power_dbm({50, 7, 0}, {60, 7, 0});
  EXPECT_NE(d1, d2);
}

TEST(DbmConversionTest, RoundTrip) {
  for (double dbm : {-90.0, -50.0, 0.0, 15.0}) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
  EXPECT_DOUBLE_EQ(dbm_to_mw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(10.0), 10.0);
}

}  // namespace
}  // namespace wlan::phy
