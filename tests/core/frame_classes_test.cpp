#include "core/frame_classes.hpp"

#include <gtest/gtest.h>

#include <set>

namespace wlan::core {
namespace {

TEST(SizeClassTest, PaperBoundaries) {
  EXPECT_EQ(size_class(0), SizeClass::kS);
  EXPECT_EQ(size_class(400), SizeClass::kS);
  EXPECT_EQ(size_class(401), SizeClass::kM);
  EXPECT_EQ(size_class(800), SizeClass::kM);
  EXPECT_EQ(size_class(801), SizeClass::kL);
  EXPECT_EQ(size_class(1200), SizeClass::kL);
  EXPECT_EQ(size_class(1201), SizeClass::kXL);
  EXPECT_EQ(size_class(1506), SizeClass::kXL);
}

TEST(SizeClassTest, Names) {
  EXPECT_EQ(size_class_name(SizeClass::kS), "S");
  EXPECT_EQ(size_class_name(SizeClass::kM), "M");
  EXPECT_EQ(size_class_name(SizeClass::kL), "L");
  EXPECT_EQ(size_class_name(SizeClass::kXL), "XL");
}

TEST(CategoryTest, SixteenDistinctIndices) {
  std::set<std::size_t> seen;
  for (std::size_t c = 0; c < kNumSizeClasses; ++c) {
    for (phy::Rate r : phy::kAllRates) {
      const auto idx = category_index(static_cast<SizeClass>(c), r);
      EXPECT_LT(idx, kNumCategories);
      seen.insert(idx);
    }
  }
  EXPECT_EQ(seen.size(), kNumCategories);
  EXPECT_EQ(kNumCategories, 16u);
}

TEST(CategoryTest, PaperNamingConvention) {
  EXPECT_EQ(category_name(SizeClass::kS, phy::Rate::kR11), "S-11");
  EXPECT_EQ(category_name(SizeClass::kXL, phy::Rate::kR1), "XL-1");
  EXPECT_EQ(category_name(SizeClass::kM, phy::Rate::kR5_5), "M-5.5");
}

class CategoryParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CategoryParamTest, IndexIsClassMajorRateMinor) {
  const auto [cls, rate] = GetParam();
  EXPECT_EQ(category_index(static_cast<SizeClass>(cls),
                           static_cast<phy::Rate>(rate)),
            static_cast<std::size_t>(cls) * 4 + rate);
}

INSTANTIATE_TEST_SUITE_P(All16, CategoryParamTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));

}  // namespace
}  // namespace wlan::core
