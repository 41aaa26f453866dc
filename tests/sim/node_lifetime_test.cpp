// Mid-air node removal regressions.  Channel::remove_node historically left
// the departing node's MacEntity* inside in-flight transmissions (the sender
// pointer, its on_air_done closure, and the overlap lists), so a node freed
// right after removal was dereferenced when its frame finished — a
// heap-use-after-free that ASan builds catch.  Removal must sever every
// back-reference while letting the frame itself finish: it still interferes,
// still reaches its receiver, and still reaches sniffers.
#include <gtest/gtest.h>

#include <memory>

#include "mac/frame.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/sniffer.hpp"
#include "trace/record.hpp"

namespace wlan::sim {
namespace {

/// Minimal channel member: counts decoded frames, can put one on the air.
class StubNode : public MacEntity {
 public:
  StubNode(Channel& channel, mac::Addr addr, phy::Position pos)
      : channel_(channel), addr_(addr), pos_(pos) {
    channel_.add_node(this);
  }

  void access_granted() override {}
  void on_receive(const mac::Frame&, double) override { ++received_; }
  [[nodiscard]] phy::Position position() const override { return pos_; }
  [[nodiscard]] mac::Addr addr() const override { return addr_; }
  [[nodiscard]] double tx_power_offset_db() const override { return 0.0; }
  [[nodiscard]] std::uint32_t sense_mask() const override { return 1; }

  [[nodiscard]] mac::Frame data_to(mac::Addr dst,
                                   std::uint32_t payload = 400) const {
    return mac::make_data(addr_, dst, dst, 1, payload, phy::Rate::kR11,
                          channel_.number());
  }

  Channel& channel_;
  mac::Addr addr_;
  phy::Position pos_;
  int received_ = 0;
};

/// Answers the first frame it decodes with a frame back to its sender, put
/// on the air from inside on_receive.  That callback runs after the
/// finished frame has left its pool slot, so the echo reuses the slot.
class EchoNode : public StubNode {
 public:
  using StubNode::StubNode;
  void on_receive(const mac::Frame& frame, double snr_db) override {
    StubNode::on_receive(frame, snr_db);
    if (received_ == 1) channel_.transmit(this, data_to(frame.src));
  }
};

class NodeLifetime : public ::testing::Test {
 protected:
  NodeLifetime()
      : prop_(deterministic_config(), 42),
        timing_(mac::timing_for(mac::TimingProfile::kPaper)),
        channel_(sim_, prop_, timing_, 6, 1) {
    channel_.set_keep_ground_truth(true);
  }

  static phy::PropagationConfig deterministic_config() {
    phy::PropagationConfig cfg;
    cfg.shadowing_sigma_db = 0.0;  // short links decode with certainty
    return cfg;
  }

  Simulator sim_;
  phy::Propagation prop_;
  mac::Timing timing_;
  Channel channel_;
};

TEST_F(NodeLifetime, SenderRemovedAndFreedMidAirStillDelivers) {
  auto sender = std::make_unique<StubNode>(channel_, 1, phy::Position{0, 0, 0});
  StubNode receiver(channel_, 2, {1, 0, 0});

  const mac::Frame frame = sender->data_to(receiver.addr());
  const auto airtime = frame.airtime();
  ASSERT_GT(airtime.count(), 100);

  sim_.at(Microseconds{10},
          [&, f = frame] { channel_.transmit(sender.get(), f); });
  // Halfway through the frame the sender powers off and its memory is freed.
  // Pre-fix, evaluate_receptions dereferenced the stale pointer at frame end.
  sim_.at(Microseconds{10 + airtime.count() / 2}, [&] {
    channel_.remove_node(sender.get());
    sender.reset();
  });
  sim_.run_until(Microseconds{100'000});

  EXPECT_EQ(receiver.received_, 1);
  ASSERT_EQ(channel_.ground_truth().size(), 1u);
  EXPECT_EQ(channel_.ground_truth()[0].outcome, trace::TxOutcome::kDelivered);
  EXPECT_EQ(channel_.ground_truth()[0].src, mac::Addr{1});
}

TEST_F(NodeLifetime, OverlappingTransmitterRemovedAndFreedMidAir) {
  StubNode sender(channel_, 1, {0, 0, 0});
  StubNode receiver(channel_, 2, {1, 0, 0});
  auto jammer = std::make_unique<StubNode>(channel_, 3, phy::Position{2, 0, 0});

  const mac::Frame frame = sender.data_to(receiver.addr(), 1200);
  const auto airtime = frame.airtime();

  sim_.at(Microseconds{10},
          [&, f = frame] { channel_.transmit(&sender, f); });
  // The jammer's short frame overlaps the long one, then the jammer leaves
  // and is freed before the long frame ends.  Pre-fix its MacEntity* lived
  // on in the long frame's overlap list and was dereferenced during SINR
  // evaluation; post-fix interference is computed from the link id alone.
  sim_.at(Microseconds{20}, [&] {
    channel_.transmit(jammer.get(), jammer->data_to(receiver.addr(), 60));
  });
  sim_.at(Microseconds{10 + airtime.count() / 2}, [&] {
    channel_.remove_node(jammer.get());
    jammer.reset();
  });
  sim_.run_until(Microseconds{100'000});

  // Both frames finished and were logged; the overlap made them collide or
  // (capture effect) still decode — either way, nothing dangled.
  ASSERT_EQ(channel_.ground_truth().size(), 2u);
  EXPECT_EQ(channel_.transmissions(), 2u);
}

TEST_F(NodeLifetime, ReceiverRemovedAndFreedMidAirIsNotDelivered) {
  StubNode sender(channel_, 1, {0, 0, 0});
  auto receiver =
      std::make_unique<StubNode>(channel_, 2, phy::Position{1, 0, 0});

  const mac::Frame frame = sender.data_to(receiver->addr());
  const auto airtime = frame.airtime();

  sim_.at(Microseconds{10},
          [&, f = frame] { channel_.transmit(&sender, f); });
  sim_.at(Microseconds{10 + airtime.count() / 2}, [&] {
    channel_.remove_node(receiver.get());
    receiver.reset();
  });
  sim_.run_until(Microseconds{100'000});

  // The destination no longer exists: the frame completes as a channel
  // error, not a delivery into freed memory.
  ASSERT_EQ(channel_.ground_truth().size(), 1u);
  EXPECT_EQ(channel_.ground_truth()[0].outcome, trace::TxOutcome::kChannelError);
}

TEST_F(NodeLifetime, QuietRemovalRecyclesLinkIdImmediately) {
  StubNode keeper(channel_, 1, {0, 0, 0});
  const std::size_t base_capacity = channel_.link_capacity();
  // A century of join/leave with a clear medium: every departure hands its
  // link id straight back, so the id space never outgrows one extra slot.
  for (int i = 0; i < 100; ++i) {
    auto visitor = std::make_unique<StubNode>(
        channel_, static_cast<mac::Addr>(100 + i),
        phy::Position{1.0 + i * 0.1, 0, 0});
    EXPECT_EQ(channel_.live_links(), base_capacity + 1);
    channel_.remove_node(visitor.get());
    visitor.reset();
  }
  EXPECT_EQ(channel_.link_capacity(), base_capacity + 1);
  EXPECT_EQ(channel_.live_links(), base_capacity);
}

TEST_F(NodeLifetime, MidAirRemovalDefersRecycleUntilLastReference) {
  StubNode receiver(channel_, 2, {1, 0, 0});
  auto sender = std::make_unique<StubNode>(channel_, 1, phy::Position{0, 0, 0});
  const auto sender_link = sender->link_id();

  const mac::Frame frame = sender->data_to(receiver.addr());
  const auto airtime = frame.airtime();
  std::unique_ptr<StubNode> newcomer;

  sim_.at(Microseconds{10},
          [&, f = frame] { channel_.transmit(sender.get(), f); });
  sim_.at(Microseconds{10 + airtime.count() / 2}, [&] {
    channel_.remove_node(sender.get());
    sender.reset();
    // The frame still references the departed link: its id must NOT be
    // handed to a newcomer yet (that would re-aim the in-flight frame's
    // interference at the newcomer's position).
    newcomer = std::make_unique<StubNode>(channel_, 3, phy::Position{5, 5, 0});
    EXPECT_NE(newcomer->link_id(), sender_link);
  });
  sim_.run_until(Microseconds{100'000});

  // Frame finished and delivered; the departed id is free now, so the next
  // joiner reuses it (LIFO) instead of growing the table.
  EXPECT_EQ(receiver.received_, 1);
  StubNode late(channel_, 4, {6, 6, 0});
  EXPECT_EQ(late.link_id(), sender_link);
}

TEST_F(NodeLifetime, OverlapReferencesAlsoDeferRecycling) {
  StubNode receiver(channel_, 2, {1, 0, 0});
  StubNode other(channel_, 3, {2, 0, 0});
  auto jammer = std::make_unique<StubNode>(channel_, 4, phy::Position{3, 0, 0});
  const auto jammer_link = jammer->link_id();

  // A long frame overlaps the jammer's short one; the jammer departs after
  // its own frame ended but while the long frame (whose overlap list still
  // names the jammer's link) is on the air.
  const mac::Frame long_frame = other.data_to(receiver.addr(), 1400);
  sim_.at(Microseconds{10},
          [&, f = long_frame] { channel_.transmit(&other, f); });
  sim_.at(Microseconds{20}, [&] {
    channel_.transmit(jammer.get(), jammer->data_to(receiver.addr(), 40));
  });
  const auto jam_end = 20 + jammer->data_to(receiver.addr(), 40).airtime().count();
  sim_.at(Microseconds{jam_end + 50}, [&] {
    ASSERT_LT(Microseconds{jam_end + 50},
              Microseconds{10} + long_frame.airtime());
    channel_.remove_node(jammer.get());
    jammer.reset();
    // Still pinned by the long frame's overlap list.
    StubNode probe(channel_, 5, {7, 7, 0});
    EXPECT_NE(probe.link_id(), jammer_link);
    channel_.remove_node(&probe);
  });
  sim_.run_until(Microseconds{100'000});

  // The long frame has landed; the jammer's id is reusable.
  StubNode late(channel_, 6, {8, 8, 0});
  EXPECT_EQ(late.link_id(), jammer_link);
}

TEST_F(NodeLifetime, RemovedSenderFrameStillReachesSniffer) {
  auto sender = std::make_unique<StubNode>(channel_, 1, phy::Position{0, 0, 0});
  StubNode receiver(channel_, 2, {1, 0, 0});

  SnifferConfig sc;
  sc.position = {0.5, 0.5, 0};
  sc.channel = channel_.number();
  sc.snr_jitter_db = 0.0;
  Sniffer sniffer(sc, 0);
  channel_.add_sniffer(&sniffer);

  const mac::Frame frame = sender->data_to(receiver.addr());
  const auto airtime = frame.airtime();

  sim_.at(Microseconds{10},
          [&, f = frame] { channel_.transmit(sender.get(), f); });
  sim_.at(Microseconds{10 + airtime.count() / 2}, [&] {
    channel_.remove_node(sender.get());
    sender.reset();
  });
  sim_.run_until(Microseconds{100'000});

  EXPECT_EQ(sniffer.stats().offered, 1u);
  EXPECT_EQ(sniffer.stats().captured, 1u);
}

TEST_F(NodeLifetime, ReentrantTransmitLeavesTheFinishedFrameIntact) {
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar reception" : "batched reception");
    Simulator sim;
    Channel channel(sim, prop_, timing_, 6, 1);
    channel.set_keep_ground_truth(true);
    channel.set_scalar_reception(scalar);
    StubNode sender(channel, 1, {0, 0, 0});
    EchoNode echo(channel, 2, {1, 0, 0});
    SnifferConfig sc;
    sc.position = {0.5, 0.5, 0};
    sc.channel = channel.number();
    sc.snr_jitter_db = 0.0;
    Sniffer sniffer(sc, 0);
    channel.add_sniffer(&sniffer);

    sim.at(Microseconds{10},
           [&] { channel.transmit(&sender, sender.data_to(echo.addr())); });
    sim.run_until(Microseconds{100'000});

    // The echo went on the air while the first frame was still being
    // delivered; the first frame must reach the sniffer and the ground
    // truth as it was sent, and the echo after it.
    const auto& records = sniffer.trace().records;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].src, mac::Addr{1});
    EXPECT_EQ(records[0].frame_id, 1u);
    EXPECT_EQ(records[1].src, mac::Addr{2});
    EXPECT_EQ(records[1].frame_id, 2u);
    const auto& truth = channel.ground_truth();
    ASSERT_EQ(truth.size(), 2u);
    EXPECT_EQ(truth[0].frame_id, 1u);
    EXPECT_EQ(truth[0].outcome, trace::TxOutcome::kDelivered);
    EXPECT_EQ(truth[1].frame_id, 2u);
    EXPECT_EQ(sender.received_, 1);
  }
}

}  // namespace
}  // namespace wlan::sim
