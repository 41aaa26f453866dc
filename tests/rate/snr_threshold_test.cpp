#include "rate/snr_threshold.hpp"

#include <gtest/gtest.h>

#include "feedback.hpp"
#include "phy/error_model.hpp"

namespace wlan::rate {
namespace {

using testing::fail;
using testing::next_rate;

TEST(SnrThresholdTest, HighSnrSelectsEleven) {
  SnrThreshold ctl;
  EXPECT_EQ(next_rate(ctl, 30.0), phy::Rate::kR11);
}

TEST(SnrThresholdTest, VeryLowSnrFallsToOne) {
  SnrThreshold ctl;
  EXPECT_EQ(next_rate(ctl, -5.0), phy::Rate::kR1);
}

TEST(SnrThresholdTest, ThresholdsMatchErrorModel) {
  SnrThreshold ctl;
  for (phy::Rate r : phy::kAllRates) {
    EXPECT_NEAR(ctl.threshold_db(r), phy::required_snr_db(r, 1024, 0.9), 1e-9);
  }
}

TEST(SnrThresholdTest, SelectionIsHighestFeasible) {
  SnrThreshold ctl;
  // Just above the 5.5 threshold but below the 11 threshold.
  const double snr =
      (ctl.threshold_db(phy::Rate::kR5_5) + ctl.threshold_db(phy::Rate::kR11)) / 2;
  EXPECT_EQ(next_rate(ctl, snr), phy::Rate::kR5_5);
}

TEST(SnrThresholdTest, OptimisticBeforeFirstMeasurement) {
  // A fresh controller with no SNR in the context starts from its
  // optimistic prior, not from the floor.
  SnrThreshold ctl;
  EXPECT_EQ(next_rate(ctl), phy::Rate::kR11);
}

TEST(SnrThresholdTest, RemembersLastKnownSnr) {
  SnrThreshold ctl;
  EXPECT_EQ(next_rate(ctl, -5.0), phy::Rate::kR1);
  // An absent hint (peer SNR unknown) must reuse the remembered SNR, not
  // reset to the optimistic prior.
  EXPECT_EQ(next_rate(ctl), phy::Rate::kR1);
}

TEST(SnrThresholdTest, IgnoresLossFeedback) {
  SnrThreshold ctl;
  (void)next_rate(ctl, 30.0);
  fail(ctl, 10);
  // Still 11: collisions do not drag an SNR-based policy down (the paper's
  // recommended behaviour).
  EXPECT_EQ(next_rate(ctl, 30.0), phy::Rate::kR11);
}

}  // namespace
}  // namespace wlan::rate
