// util::SmallFn edge cases — the move-only callable under every scheduled
// event.  Three storage strategies exist (trivial inline, non-trivial
// inline, heap spill) and each must move, assign, reset and destroy without
// leaking or double-freeing; instance counting makes lifetime bugs visible
// even without ASan (the CI Debug jobs add ASan on top).  The SmallFn
// consumer with the trickiest lifecycle — sim::Simulator's slots, recycled
// under cancel/reschedule churn — is covered in tests/sim/simulator_test.cpp.
#include "util/small_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>


namespace wlan::util {
namespace {

/// Capture payload that counts live instances (copy/move/destroy balance).
struct Counted {
  static int live;
  static int moves;
  int tag;
  explicit Counted(int t) : tag(t) { ++live; }
  Counted(const Counted& o) : tag(o.tag) { ++live; }
  Counted(Counted&& o) noexcept : tag(o.tag) {
    ++live;
    ++moves;
  }
  ~Counted() { --live; }
};
int Counted::live = 0;
int Counted::moves = 0;

TEST(SmallFnTest, TrivialInlineCaptureSurvivesMoves) {
  int hits = 0;
  int* p = &hits;
  SmallFn<void()> a([p] { ++*p; });
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  EXPECT_EQ(hits, 1);

  SmallFn<void()> b(std::move(a));  // byte-copy move path (no manager)
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(hits, 2);

  SmallFn<void()> c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 3);
}

TEST(SmallFnTest, NonTrivialInlineCaptureBalancesLifetimes) {
  Counted::live = 0;
  {
    SmallFn<int()> fn([c = Counted{7}] { return c.tag; });
    EXPECT_EQ(Counted::live, 1);  // exactly the stored copy
    EXPECT_EQ(fn(), 7);

    SmallFn<int()> moved(std::move(fn));
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(Counted::live, 1);  // moved, not duplicated
    EXPECT_EQ(moved(), 7);

    // Move-assign over a live target must destroy the old payload.
    SmallFn<int()> other([c = Counted{9}] { return c.tag; });
    EXPECT_EQ(Counted::live, 2);
    other = std::move(moved);
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(other(), 7);

    other = nullptr;  // explicit reset destroys the payload
    EXPECT_EQ(Counted::live, 0);
    EXPECT_FALSE(static_cast<bool>(other));
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(SmallFnTest, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(41);
  SmallFn<int()> fn([q = std::move(p)] { return *q + 1; });
  EXPECT_EQ(fn(), 42);
  SmallFn<int()> moved(std::move(fn));
  EXPECT_EQ(moved(), 42);
}

TEST(SmallFnTest, OversizedCaptureSpillsToHeapWithoutLeaking) {
  Counted::live = 0;
  {
    // Padding pushes the closure past the default 64-byte inline budget.
    std::array<char, 128> pad{};
    pad[0] = 3;
    SmallFn<int()> fn([c = Counted{5}, pad] { return c.tag + pad[0]; });
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(fn(), 8);

    // Heap path moves are pointer swaps: no payload move happens.
    const int moves_before = Counted::moves;
    SmallFn<int()> moved(std::move(fn));
    EXPECT_EQ(Counted::moves, moves_before);
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(moved(), 8);

    SmallFn<int()> other;
    other = std::move(moved);
    EXPECT_FALSE(static_cast<bool>(moved));
    EXPECT_EQ(other(), 8);
  }
  EXPECT_EQ(Counted::live, 0);  // heap copy freed exactly once
}

TEST(SmallFnTest, NullAndEmptyBehaviors) {
  SmallFn<void()> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  SmallFn<void()> from_null(nullptr);
  EXPECT_FALSE(static_cast<bool>(from_null));
  // Moving an empty one is harmless and leaves both empty.
  SmallFn<void()> target(std::move(empty));
  EXPECT_FALSE(static_cast<bool>(target));
}

}  // namespace
}  // namespace wlan::util
