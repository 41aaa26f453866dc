#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/merge.hpp"

namespace wlan::sim {
namespace {

NetworkConfig tri_channel(std::uint64_t seed = 31) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.propagation.shadowing_sigma_db = 0.0;
  return cfg;
}

TEST(NetworkTest, ChannelLookup) {
  Network net(tri_channel());
  EXPECT_EQ(net.channel(1).number(), 1);
  EXPECT_EQ(net.channel(6).number(), 6);
  EXPECT_EQ(net.channel(11).number(), 11);
  EXPECT_THROW(static_cast<void>(net.channel(3)), std::out_of_range);
}

TEST(NetworkTest, AddressesAreUnique) {
  Network net(tri_channel());
  auto& ap = net.add_ap({0, 0, 0}, 1);
  StationConfig sc;
  sc.position = {1, 1, 0};
  auto& sta = net.add_station(6, sc);
  std::vector<mac::Addr> all{ap.addr(), sta.addr()};
  all.insert(all.end(), ap.vap_addrs().begin(), ap.vap_addrs().end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(NetworkTest, ApGetsRequestedVapCount) {
  Network net(tri_channel());
  EXPECT_EQ(net.add_ap({0, 0, 0}, 1, 4).vap_addrs().size(), 4u);
  EXPECT_EQ(net.add_ap({9, 9, 0}, 6, 2).vap_addrs().size(), 2u);
}

TEST(NetworkTest, ChooseApPicksStrongestSignal) {
  Network net(tri_channel());
  auto& near_ap = net.add_ap({0, 0, 0}, 1);
  net.add_ap({100, 100, 0}, 6);
  const auto choice = net.choose_ap({5, 5, 0});
  EXPECT_EQ(choice.ap, &near_ap);
  EXPECT_EQ(choice.channel, 1);
}

TEST(NetworkTest, ChooseApBalancesVaps) {
  Network net(tri_channel());
  auto& ap = net.add_ap({0, 0, 0}, 1);
  const auto first = net.choose_ap({2, 2, 0});
  EXPECT_EQ(first.ap, &ap);
  // All VAPs empty: any is fine; simulate an association then re-choose.
  // (Association counts only update via AssocReq frames; this checks the
  // bookkeeping path stays consistent when empty.)
  EXPECT_NE(first.vap, mac::kNoAddr);
}

TEST(NetworkTest, ChooseApWithNoApsReturnsNull) {
  Network net(tri_channel());
  EXPECT_EQ(net.choose_ap({0, 0, 0}).ap, nullptr);
}

TEST(NetworkTest, SniffersOnlyHearTheirChannel) {
  Network net(tri_channel(33));
  auto& ap1 = net.add_ap({5, 5, 0}, 1);
  auto& ap6 = net.add_ap({6, 6, 0}, 6);

  SnifferConfig cfg;
  cfg.position = {5, 6, 0};
  cfg.channel = 1;
  cfg.snr_jitter_db = 0;
  auto& sniffer = net.add_sniffer(cfg);

  StationConfig sc;
  sc.position = {7, 7, 0};
  auto& sta1 = net.add_station(1, sc);
  auto& sta6 = net.add_station(6, sc);
  Packet p1;
  p1.dst = ap1.vap_addrs()[0];
  p1.payload = 500;
  p1.bssid = p1.dst;
  sta1.enqueue(p1);
  Packet p6;
  p6.dst = ap6.vap_addrs()[0];
  p6.payload = 500;
  p6.bssid = p6.dst;
  sta6.enqueue(p6);
  net.run_for(msec(100));

  ASSERT_GT(sniffer.trace().records.size(), 0u);
  for (const auto& r : sniffer.trace().records) EXPECT_EQ(r.channel, 1);
}

TEST(NetworkTest, MergedTraceDedupsAcrossSniffers) {
  Network net(tri_channel(35));
  auto& ap = net.add_ap({5, 5, 0}, 1);
  // Two sniffers on the same channel hear the same frames.
  for (int i = 0; i < 2; ++i) {
    SnifferConfig cfg;
    cfg.position = {4.0 + i, 5, 0};
    cfg.channel = 1;
    net.add_sniffer(cfg);
  }
  StationConfig sc;
  sc.position = {7, 7, 0};
  auto& sta = net.add_station(1, sc);
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.dst = ap.vap_addrs()[0];
    p.payload = 500;
    p.bssid = p.dst;
    sta.enqueue(p);
  }
  net.run_for(msec(300));

  const auto traces = net.sniffer_traces();
  ASSERT_EQ(traces.size(), 2u);
  const auto merged = trace::merge_sniffer_traces(traces).trace;
  // Merged keeps each frame once: strictly fewer records than the sum.
  EXPECT_LT(merged.records.size(),
            traces[0].records.size() + traces[1].records.size());
  // And is time-sorted.
  for (std::size_t i = 1; i < merged.records.size(); ++i) {
    EXPECT_LE(merged.records[i - 1].time_us, merged.records[i].time_us);
  }
}

TEST(NetworkTest, GroundTruthSpansAllChannels) {
  NetworkConfig cfg = tri_channel(37);
  cfg.keep_ground_truth = true;
  Network net(cfg);
  net.add_ap({1, 1, 0}, 1).start_beacons();
  net.add_ap({2, 2, 0}, 6).start_beacons();
  net.add_ap({3, 3, 0}, 11).start_beacons();
  net.run_for(msec(500));
  bool saw[3] = {false, false, false};
  for (const auto& r : net.ground_truth()) {
    if (r.channel == 1) saw[0] = true;
    if (r.channel == 6) saw[1] = true;
    if (r.channel == 11) saw[2] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
  EXPECT_TRUE(saw[2]);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Network net(tri_channel(39));
    auto& ap = net.add_ap({5, 5, 0}, 6);
    SnifferConfig sniff;
    sniff.position = {5, 5, 0};
    sniff.channel = 6;
    auto& sniffer = net.add_sniffer(sniff);
    StationConfig sc;
    sc.position = {8, 8, 0};
    auto& sta = net.add_station(6, sc);
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.dst = ap.vap_addrs()[0];
      p.payload = 600;
      p.bssid = p.dst;
      sta.enqueue(p);
    }
    net.run_for(sec(1));
    std::vector<std::int64_t> times;
    for (const auto& r : sniffer.trace().records) times.push_back(r.time_us);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

// A seed a caller sets is the node's own, whatever its value: only an unset
// seed draws from the network.  Seeds 1 and 7 (the station and sniffer
// defaults) once meant "draw", so these nodes ran whatever the network drew
// next, which moved when another node drew before them.
TEST(NetworkTest, ExplicitSeedsHoldWhateverTheNetworkDrewBefore) {
  struct Run {
    std::vector<std::int64_t> station_tx;  ///< starts of the station's frames
    std::vector<std::int64_t> capture;     ///< capture times
    std::vector<float> capture_snr;        ///< and SNRs (sniffer jitter)
  };
  const auto run_once = [](bool draw_first) {
    NetworkConfig cfg = tri_channel(41);
    cfg.keep_ground_truth = true;
    Network net(cfg);
    auto& ap = net.add_ap({5, 5, 0}, 6);
    // A sniffer on an idle channel: without a seed it takes one draw.
    SnifferConfig idle;
    idle.channel = 11;
    if (!draw_first) idle.seed = 99;
    net.add_sniffer(idle);

    SnifferConfig sniff;
    sniff.position = {6, 6, 0};
    sniff.channel = 6;
    sniff.seed = 7;
    auto& sniffer = net.add_sniffer(sniff);
    StationConfig sc;
    sc.position = {8, 8, 0};
    sc.seed = 1;
    auto& sta = net.add_station(6, sc);
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.dst = ap.vap_addrs()[0];
      p.payload = 600;
      p.bssid = p.dst;
      sta.enqueue(p);
    }
    net.run_for(sec(1));
    Run run;
    for (const auto& r : net.ground_truth()) {
      if (r.src == sta.addr()) run.station_tx.push_back(r.time_us);
    }
    for (const auto& r : sniffer.trace().records) {
      run.capture.push_back(r.time_us);
      run.capture_snr.push_back(r.snr_db);
    }
    return run;
  };
  const Run drawn = run_once(true);
  const Run undrawn = run_once(false);
  ASSERT_GE(drawn.station_tx.size(), 20u);
  ASSERT_FALSE(drawn.capture.empty());
  EXPECT_EQ(drawn.station_tx, undrawn.station_tx);
  EXPECT_EQ(drawn.capture, undrawn.capture);
  EXPECT_EQ(drawn.capture_snr, undrawn.capture_snr);
}

// A shard event's throw reaches run_for's caller whichever thread ran it,
// and only after every worker has finished the phase: each case then reads
// every lane's clock, which would race with a still-running worker (TSan).
// The lowest participant's throw wins, so a throw from channel 1 (shard 0,
// the caller's own share) beats one from channel 11 in the same phase.
TEST(NetworkTest, ShardEventThrowReachesTheCaller) {
  struct Case {
    std::vector<std::uint8_t> throwing;
    std::string message;
  };
  const std::vector<Case> cases = {
      {{11}, "channel 11"}, {{1}, "channel 1"}, {{1, 11}, "channel 1"}};
  for (const int shards : {1, 3}) {
    for (const Case& c : cases) {
      NetworkConfig cfg = tri_channel();
      cfg.shards = shards;
      Network net(cfg);
      // Channels 6 and 11 stay busy through the phase the throw ends.
      for (const std::uint8_t ch : {6, 11}) {
        Simulator& lane = net.channel(ch).simulator();
        for (int t = 1; t < 5000; t += 5) lane.at(usec(t), [] {});
      }
      for (const std::uint8_t ch : c.throwing) {
        const std::string what = "channel " + std::to_string(ch);
        net.channel(ch).simulator().in(
            msec(1), [what] { throw std::runtime_error(what); });
      }
      try {
        net.run_for(msec(5));
        ADD_FAILURE() << "no throw; shards " << shards;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), c.message) << "shards " << shards;
      }
      for (const std::uint8_t ch : net.channel_numbers()) {
        EXPECT_LE(net.channel(ch).simulator().now(), msec(5));
      }
    }
  }
}

// Workers wait for the first phase from construction on; a Network that
// never runs must still stop and join them.
TEST(NetworkTest, ShardedNetworkThatNeverRunsJoinsItsWorkers) {
  NetworkConfig cfg = tri_channel();
  cfg.shards = 3;
  { Network net(cfg); }
}

// Shard events must never schedule onto the control lane (see
// Network::simulator()).  The check is a Debug assert, and it holds at any
// shard count: one shard runs the phases on the caller's thread, where the
// violation would otherwise pass silently.
TEST(NetworkDeathTest, ShardEventSchedulingAControlEventAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the control-lane check is a Debug-build assert";
#else
  for (const int shards : {1, 3}) {
    EXPECT_DEATH(
        {
          NetworkConfig cfg = tri_channel();
          cfg.shards = shards;
          Network net(cfg);
          net.channel(6).simulator().in(msec(1), [&net] {
            net.simulator().in(msec(1), [] {});
          });
          net.run_for(msec(5));
        },
        "control-lane event scheduled from a shard event")
        << "shards " << shards;
  }
#endif
}

}  // namespace
}  // namespace wlan::sim
