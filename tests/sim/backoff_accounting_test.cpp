// Shared-timer slot accounting regressions (paper Figure 1 timeline:
// BO DIFS DATA).  A station joining mid-idle owes a full DIFS plus its drawn
// slots, counted from the next shared slot boundary — the handicap must round
// partial slots *up*.  Flooring them (the historic bug) let a joiner count a
// partially elapsed slot as fully waited, and across a freeze/resume cycle
// that fractional slot was credited twice: once via the handicap, once via
// consume_elapsed_slots' whole-slot charge.
#include <gtest/gtest.h>

#include "mac/frame.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace wlan::sim {
namespace {

/// Minimal contender: records when access is granted; optionally puts a
/// data frame on the air at grant time.
class StubNode : public MacEntity {
 public:
  StubNode(Channel& channel, mac::Addr addr, phy::Position pos)
      : channel_(channel), addr_(addr), pos_(pos) {
    channel_.add_node(this);
  }

  void access_granted() override {
    granted_at_ = channel_.simulator().now();
    ++grants_;
    if (transmit_on_grant_) {
      channel_.transmit(this, frame());
    }
  }
  void on_receive(const mac::Frame&, double) override {}
  [[nodiscard]] phy::Position position() const override { return pos_; }
  [[nodiscard]] mac::Addr addr() const override { return addr_; }
  [[nodiscard]] double tx_power_offset_db() const override { return 0.0; }
  [[nodiscard]] std::uint32_t sense_mask() const override { return 1; }

  [[nodiscard]] mac::Frame frame() const {
    return mac::make_data(addr_, mac::Addr{900}, mac::Addr{900}, 1, 400,
                          phy::Rate::kR11, channel_.number());
  }

  Channel& channel_;
  mac::Addr addr_;
  phy::Position pos_;
  Microseconds granted_at_{-1};
  int grants_ = 0;
  bool transmit_on_grant_ = false;
};

class BackoffAccounting : public ::testing::Test {
 protected:
  BackoffAccounting()
      : prop_(phy::PropagationConfig{}, 42),
        timing_(mac::timing_for(mac::TimingProfile::kPaper)),
        channel_(sim_, prop_, timing_, 6, 1) {}

  Simulator sim_;
  phy::Propagation prop_;
  mac::Timing timing_;
  Channel channel_;
};

TEST_F(BackoffAccounting, MidIdleJoinerOwesDifsPlusDrawFromNextBoundary) {
  // Joining 7003 us into an idle period with a zero draw: the grant may come
  // no earlier than join + DIFS (7053), aligned up to the shared slot grid
  // (boundaries at 50 + 10k) -> exactly 7060.  The floored handicap fired
  // the timer at 7000, clamped to "now", and granted access instantly.
  StubNode node(channel_, 1, {0, 0, 0});
  sim_.at(Microseconds{7003}, [&] { channel_.request_access(&node, 0); });
  sim_.run_until(Microseconds{20'000});

  ASSERT_EQ(node.grants_, 1);
  EXPECT_GE(node.granted_at_.count(), 7003 + timing_.difs.count());
  EXPECT_EQ(node.granted_at_.count(), 7060);
}

TEST_F(BackoffAccounting, MidDifsJoinerStillSensesAFullDifs) {
  // Joining before the first DIFS of the idle period has elapsed (t = 34 us)
  // must not inherit the head start: first eligible boundary at/after
  // 34 + 50 = 84 is 90.  The old code armed the timer at t = 50.
  StubNode node(channel_, 1, {0, 0, 0});
  sim_.at(Microseconds{34}, [&] { channel_.request_access(&node, 0); });
  sim_.run_until(Microseconds{1'000});

  ASSERT_EQ(node.grants_, 1);
  EXPECT_GE(node.granted_at_.count(), 34 + timing_.difs.count());
  EXPECT_EQ(node.granted_at_.count(), 90);
}

TEST_F(BackoffAccounting, DrawnSlotsAreAddedOnTopOfTheAlignedDifs) {
  StubNode node(channel_, 1, {0, 0, 0});
  sim_.at(Microseconds{7003}, [&] { channel_.request_access(&node, 3); });
  sim_.run_until(Microseconds{20'000});

  ASSERT_EQ(node.grants_, 1);
  // 7060 (aligned DIFS, see above) + 3 slots.
  EXPECT_EQ(node.granted_at_.count(), 7060 + 3 * timing_.slot.count());
}

TEST_F(BackoffAccounting, FreezeResumeChargesOnlyWholeElapsedSlots) {
  // Contender A joins at t = 7 with a draw of 5: handicap ceil(7/10) = 1,
  // so A's grant sits at boundary 6 of the grid (50 + 60 = 110 us).  At
  // t = 75 — 2.5 slots into the countdown — B puts a frame on the air
  // directly (a SIFS-style response bypassing contention).  The freeze may
  // charge exactly 2 whole slots; A then owes DIFS + 4 slots from the end of
  // the busy period.  Double-crediting the partial slot would grant A one
  // slot (10 us) early.
  StubNode a(channel_, 1, {0, 0, 0});
  StubNode b(channel_, 2, {1, 0, 0});
  sim_.at(Microseconds{7}, [&] { channel_.request_access(&a, 5); });
  sim_.at(Microseconds{75}, [&] { channel_.transmit(&b, b.frame()); });
  sim_.run_until(Microseconds{50'000});

  const auto busy_end = Microseconds{75} + b.frame().airtime();
  ASSERT_EQ(a.grants_, 1);
  EXPECT_EQ(a.granted_at_.count(),
            busy_end.count() + timing_.difs.count() + 4 * timing_.slot.count());
}

}  // namespace
}  // namespace wlan::sim
