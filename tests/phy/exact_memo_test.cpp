#include "phy/exact_memo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "phy/error_model.hpp"
#include "phy/propagation.hpp"
#include "util/rng.hpp"

namespace wlan::phy {
namespace {

// Every memo starts at 2^2 slots and may grow to 2^6: small enough that a
// stream of a hundred keys forces both 4x steps, then misses at the cap.
constexpr unsigned kLog2Start = 2;
constexpr unsigned kLog2Cap = 6;
constexpr int kCalls = 5000;

struct StreamResult {
  int mismatches = 0;                   ///< returned bits != direct call's
  std::vector<std::size_t> capacities;  ///< each distinct capacity, in order
};

// Feeds kCalls draws from `pool` (a seeded stream, so keys repeat) to
// `memo`, comparing each answer's bits with `direct`'s.
template <class Memo, class Arg, class Direct>
StreamResult run_stream(Memo& memo, const std::vector<Arg>& pool,
                        Direct direct, std::uint64_t seed) {
  StreamResult out;
  out.capacities.push_back(memo.capacity());
  util::Rng rng(seed);
  for (int i = 0; i < kCalls; ++i) {
    const Arg& a = pool[rng.uniform(pool.size())];
    const double got = a.call(memo);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(a.call(direct))) {
      ++out.mismatches;
    }
    if (memo.capacity() != out.capacities.back()) {
      out.capacities.push_back(memo.capacity());
    }
  }
  return out;
}

struct FrameArgs {
  Rate rate;
  std::uint32_t bytes;
  double snr_db;
  template <class F>
  double call(F& f) const {
    return f(rate, bytes, snr_db);
  }
};

struct UnaryArg {
  double x;
  template <class F>
  double call(F& f) const {
    return f(x);
  }
};

const std::vector<std::size_t> kGrowth = {4, 16, 64};

TEST(ExactMemoTest, FrameSuccessMatchesTheDirectCallAndGrowsToItsCap) {
  // Every rate and frame size over SINRs up to just past the 1 Mbps
  // saturation knee (8.7 dB): the same SINR recurs at several sizes and
  // rates, so a key that lost a field would alias, and the top one takes
  // the saturation shortcut at 1 Mbps.
  std::vector<FrameArgs> pool;
  for (Rate rate : kAllRates) {
    for (std::uint32_t bytes : {14u, 20u, 304u, 1536u}) {
      for (double snr : {0.5, 2.25, 4.0, 5.75, 7.5, 9.25}) {
        pool.push_back({rate, bytes, snr});
      }
    }
  }
  FrameSuccessCache memo(kLog2Start, kLog2Cap);
  const auto direct = [](Rate r, std::uint32_t b, double s) {
    return frame_success_probability(r, b, s);
  };
  const StreamResult res = run_stream(memo, pool, direct, 0x5EED);
  EXPECT_EQ(res.mismatches, 0);
  EXPECT_EQ(res.capacities, kGrowth);
  EXPECT_EQ(memo.resizes(), 2u);
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_GT(memo.evals(), 0u);
  EXPECT_GT(memo.saturated(), 0u);
  EXPECT_EQ(memo.hits() + memo.evals() + memo.saturated(),
            static_cast<std::uint64_t>(kCalls));
}

TEST(ExactMemoTest, SaturatedSinrIsTheDirectEvaluationAndSkipsTheTable) {
  FrameSuccessCache memo(kLog2Start, kLog2Cap);
  for (Rate rate : kAllRates) {
    const double snr = saturation_snr_db(rate);
    for (std::uint32_t bytes : {14u, 1536u}) {
      EXPECT_EQ(frame_success_probability(rate, bytes, snr), 1.0);
      EXPECT_EQ(memo(rate, bytes, snr), 1.0);
      EXPECT_EQ(memo(rate, bytes, snr + 30.0), 1.0);
    }
  }
  EXPECT_EQ(memo.saturated(), 16u);
  EXPECT_EQ(memo.hits() + memo.evals(), 0u);
  EXPECT_EQ(memo.capacity(), 4u);
}

// An all-zero key (0.0 dB, or 0 dBm) must miss a fresh table: empty slots
// hold the signalling-NaN key, not zeros with a stale value.
TEST(ExactMemoTest, EmptySlotsNeverAnswerAZeroKey) {
  FrameSuccessCache frame(kLog2Start, kLog2Cap);
  EXPECT_EQ(frame(Rate::kR1, 0, 0.0),
            frame_success_probability(Rate::kR1, 0, 0.0));
  EXPECT_EQ(frame.hits(), 0u);
  EXPECT_EQ(frame.evals(), 1u);

  ExactMemo<UnaryKey<&dbm_to_mw>> unary(kLog2Start, kLog2Cap);
  EXPECT_EQ(unary(0.0), 1.0);
  EXPECT_EQ(unary.hits(), 0u);
  EXPECT_EQ(unary.evals(), 1u);
}

template <double (*Fn)(double)>
void check_unary(const std::vector<UnaryArg>& pool, std::uint64_t seed) {
  ExactMemo<UnaryKey<Fn>> memo(kLog2Start, kLog2Cap);
  const auto direct = [](double x) { return Fn(x); };
  const StreamResult res = run_stream(memo, pool, direct, seed);
  EXPECT_EQ(res.mismatches, 0);
  EXPECT_EQ(res.capacities, kGrowth);
  EXPECT_EQ(memo.resizes(), 2u);
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_GT(memo.evals(), 0u);
  EXPECT_EQ(memo.hits() + memo.evals(), static_cast<std::uint64_t>(kCalls));
}

TEST(ExactMemoTest, UnaryConversionsMatchTheDirectCallAndGrowToTheirCap) {
  // Received powers a quarter dB apart, and the interference sums they make.
  std::vector<UnaryArg> dbm;
  std::vector<UnaryArg> mw;
  for (int i = 0; i < 96; ++i) {
    dbm.push_back({-94.0 + 0.25 * i});
    mw.push_back({dbm_to_mw(-94.0 + 0.25 * i) + dbm_to_mw(kNoiseFloorDbm)});
  }
  check_unary<&dbm_to_mw>(dbm, 0xD8);
  check_unary<&mw_to_dbm>(mw, 0x3D);
}

}  // namespace
}  // namespace wlan::phy
