#include "core/theoretical.hpp"

#include <gtest/gtest.h>

namespace wlan::core {
namespace {

const DelayComponents d = DelayComponents::paper();

TEST(TheoreticalTest, ExchangeTimeHandComputed) {
  // 1024 B at 11 Mbps: DIFS 50 + DATA (192 + ceil(8*1058/11)=770) + SIFS 10
  // + ACK 304 = 1326 us.
  EXPECT_EQ(exchange_time(d, 1024, phy::Rate::kR11).count(),
            50 + 192 + 770 + 10 + 304);
}

TEST(TheoreticalTest, RtsCtsAddsFixedOverhead) {
  const auto plain = exchange_time(d, 1024, phy::Rate::kR11);
  TmtOptions opt;
  opt.rts_cts = true;
  const auto with = exchange_time(d, 1024, phy::Rate::kR11, opt);
  EXPECT_EQ((with - plain).count(), 352 + 10 + 304 + 10);
}

TEST(TheoreticalTest, BackoffExtendsExchange) {
  TmtOptions opt;
  opt.backoff = Microseconds{155};  // mean of CW 31 at 10 us slots
  EXPECT_EQ(exchange_time(d, 1024, phy::Rate::kR11, opt).count(),
            exchange_time(d, 1024, phy::Rate::kR11).count() + 155);
}

TEST(TheoreticalTest, TmtNeverExceedsNominalRate) {
  for (phy::Rate r : phy::kAllRates) {
    for (std::uint32_t size : {64u, 512u, 1472u}) {
      EXPECT_LT(theoretical_max_throughput_mbps(d, size, r),
                phy::rate_mbps(r));
    }
  }
}

TEST(TheoreticalTest, BestCaseMatchesJunEtAl) {
  // Jun et al. report ~6.1 Mbps TMT for full-MTU UDP payloads at 11 Mbps
  // with these parameters (mean backoff included).
  const double tmt = best_case_tmt_mbps(d);
  EXPECT_GT(tmt, 5.8);
  EXPECT_LT(tmt, 6.8);
}

TEST(TheoreticalTest, PaperPeakIsNearTmtScaledByUtilization) {
  // The paper's §5.2 observation: measured 4.9 Mbps at 84% utilization is
  // "closest to the achievable theoretical maximum".  0.84 x TMT lands in
  // the right neighbourhood of that measurement (the real mix was not all
  // full-MTU 11 Mbps frames, so the measured value sits a little below).
  EXPECT_NEAR(0.84 * best_case_tmt_mbps(d), 4.9, 0.8);
}

TEST(TheoreticalTest, SmallFrameAtElevenBeatsLargeAtOne) {
  // The §6 headline, restated in TMT terms: raw per-exchange delivery rate
  // at 11 Mbps exceeds 1 Mbps for every frame size.
  for (std::uint32_t size : {64u, 400u, 1472u}) {
    EXPECT_GT(theoretical_max_throughput_mbps(d, size, phy::Rate::kR11),
              theoretical_max_throughput_mbps(d, size, phy::Rate::kR1));
  }
}

}  // namespace
}  // namespace wlan::core
