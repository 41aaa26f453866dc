// Property/oracle tests for util::FlatMap — the open-addressing table on the
// channel's per-frame hot path.  Every randomized sequence of
// insert_or_assign / erase / find is checked operation-for-operation against
// std::unordered_map, with the workloads the structure is most likely to get
// wrong: erase-heavy cycling (backward-shift deletion must keep every
// surviving key reachable along its probe path) and sizes pinned to the
// rehash boundary (the grow must re-home every key).
#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace wlan::util {
namespace {

constexpr std::uint32_t kEmpty = 0xFFFFFFFF;
using Map = FlatMap<std::uint32_t, std::uint64_t, kEmpty>;
using Oracle = std::unordered_map<std::uint32_t, std::uint64_t>;

/// Full-state equivalence: size, every oracle entry findable with the right
/// value, and for_each enumerates exactly the oracle's pairs.
void expect_equivalent(const Map& map, const Oracle& oracle) {
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const std::uint64_t* found = map.find(k);
    ASSERT_NE(found, nullptr) << "key " << k << " lost";
    EXPECT_EQ(*found, v) << "key " << k;
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t k, std::uint64_t v) {
    ++visited;
    const auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << "phantom key " << k;
    EXPECT_EQ(it->second, v);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatMapPropertyTest, RandomizedOpsMatchUnorderedMapOracle) {
  // Several independent sequences; small key space so collisions, updates
  // and erase-of-present are all frequent.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Map map;
    Oracle oracle;
    Rng rng(seed * 0x9E37ULL);
    for (int op = 0; op < 4000; ++op) {
      const auto key = static_cast<std::uint32_t>(rng.uniform(97));
      const std::uint64_t roll = rng.uniform(100);
      if (roll < 55) {
        const std::uint64_t value = rng.next();
        map.insert_or_assign(key, value);
        oracle[key] = value;
      } else if (roll < 85) {
        EXPECT_EQ(map.erase(key), oracle.erase(key) > 0);
      } else {
        const std::uint64_t* found = map.find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    expect_equivalent(map, oracle);
  }
}

TEST(FlatMapPropertyTest, EraseHeavyCyclingDoesNotRotTheTable) {
  // The classic tombstone failure mode: a fixed-size working set cycled
  // through thousands of insert/erase rounds.  With backward-shift deletion
  // the table must stay exactly as probeable as day one — every live key
  // findable, every dead key absent — and size() must not drift.
  Map map;
  Oracle oracle;
  Rng rng(0xE2A5EULL);
  // Working set of ~24 keys drawn from a 48-key space, churned 3000 times.
  for (int round = 0; round < 3000; ++round) {
    const auto add = static_cast<std::uint32_t>(rng.uniform(48));
    map.insert_or_assign(add, round);
    oracle[add] = static_cast<std::uint64_t>(round);
    if (oracle.size() > 24) {
      // Evict a pseudo-random present key (deterministic pick).
      const std::size_t skip = rng.uniform(oracle.size());
      auto it = oracle.begin();
      for (std::size_t i = 0; i < skip; ++i) ++it;
      const std::uint32_t victim = it->first;
      oracle.erase(it);
      EXPECT_TRUE(map.erase(victim));
    }
    if (round % 250 == 0) expect_equivalent(map, oracle);
  }
  expect_equivalent(map, oracle);
}

TEST(FlatMapPropertyTest, RehashBoundaryKeepsEveryKey) {
  // Initial capacity is 16 and the table grows when (size+1)*4 > cap*3 —
  // i.e. inserting the 12th key.  Walk sizes straddling every boundary up
  // to a few doublings and verify the full contents after each insert.
  Map map;
  Oracle oracle;
  Rng rng(0xB0DA2ULL);
  for (std::uint32_t n = 0; n < 200; ++n) {
    // Sparse, high-entropy keys: exercise the hash fold, not just dense ids.
    const auto key = static_cast<std::uint32_t>(rng.next() & 0x7FFFFFFF);
    const std::uint64_t value = rng.next();
    map.insert_or_assign(key, value);
    oracle[key] = value;
    expect_equivalent(map, oracle);
  }
}

TEST(FlatMapPropertyTest, EraseDuringBackwardShiftChains) {
  // Force long probe chains by inserting many keys, then erase them in an
  // interleaved order so backward-shift repeatedly relocates survivors.
  Map map;
  Oracle oracle;
  std::vector<std::uint32_t> keys;
  Rng rng(0x5EEDULL);
  for (int i = 0; i < 300; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.uniform(1u << 20));
    if (oracle.count(key)) continue;
    keys.push_back(key);
    map.insert_or_assign(key, key * 3ULL);
    oracle[key] = key * 3ULL;
  }
  // Erase every third key, then every remaining even index, verifying the
  // survivors after each wave.
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    EXPECT_TRUE(map.erase(keys[i]));
    oracle.erase(keys[i]);
  }
  expect_equivalent(map, oracle);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    const bool present = oracle.erase(keys[i]) > 0;
    EXPECT_EQ(map.erase(keys[i]), present);
  }
  expect_equivalent(map, oracle);
  // Absent keys: erase reports false and find stays null.
  EXPECT_FALSE(map.erase(0x7FFFFFFF));
  EXPECT_EQ(map.find(kEmpty), nullptr);  // reserved marker is never "found"
}

}  // namespace
}  // namespace wlan::util
