#include "fuzzy/interval_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace fuzzydb {
namespace {

TEST(IntervalOrderTest, PaperExample31) {
  // Example 3.1: r1.X, r2.X, r3.X represent [30,35], [20,28], [20,35];
  // s1.X, s2.X, s3.X represent [32,34], [20,25], [30,40].
  const Trapezoid r1 = Trapezoid::Interval(30, 35);
  const Trapezoid r2 = Trapezoid::Interval(20, 28);
  const Trapezoid r3 = Trapezoid::Interval(20, 35);
  // [20,28] < [20,35] < [30,35]  =>  r2 < r3 < r1.
  EXPECT_TRUE(IntervalOrderLess(r2, r3));
  EXPECT_TRUE(IntervalOrderLess(r3, r1));
  EXPECT_TRUE(IntervalOrderLess(r2, r1));
  EXPECT_FALSE(IntervalOrderLess(r1, r3));

  const Trapezoid s1 = Trapezoid::Interval(32, 34);
  const Trapezoid s2 = Trapezoid::Interval(20, 25);
  const Trapezoid s3 = Trapezoid::Interval(30, 40);
  // s2 < s3 < s1.
  EXPECT_TRUE(IntervalOrderLess(s2, s3));
  EXPECT_TRUE(IntervalOrderLess(s3, s1));
}

TEST(IntervalOrderTest, TiesOnBeginBreakOnEnd) {
  const Trapezoid narrow = Trapezoid::Interval(10, 12);
  const Trapezoid wide = Trapezoid::Interval(10, 20);
  EXPECT_TRUE(IntervalOrderLess(narrow, wide));
  EXPECT_FALSE(IntervalOrderLess(wide, narrow));
  EXPECT_EQ(CompareIntervalOrder(narrow, narrow), 0);
}

TEST(IntervalOrderTest, CrispValuesOrderAsNumbers) {
  EXPECT_TRUE(IntervalOrderLess(Trapezoid::Crisp(3), Trapezoid::Crisp(4)));
  EXPECT_FALSE(IntervalOrderLess(Trapezoid::Crisp(4), Trapezoid::Crisp(3)));
  EXPECT_EQ(CompareIntervalOrder(Trapezoid::Crisp(4), Trapezoid::Crisp(4)), 0);
}

TEST(IntervalOrderTest, IsStrictWeakOrdering) {
  Rng rng(7);
  std::vector<Trapezoid> values;
  for (int i = 0; i < 50; ++i) {
    double c[4];
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 20));
    std::sort(c, c + 4);
    values.push_back(Trapezoid(c[0], c[1], c[2], c[3]));
  }
  // Irreflexivity and asymmetry.
  for (const auto& x : values) {
    EXPECT_FALSE(IntervalOrderLess(x, x));
    for (const auto& y : values) {
      if (IntervalOrderLess(x, y)) {
        EXPECT_FALSE(IntervalOrderLess(y, x));
      }
      // Transitivity.
      for (const auto& z : values) {
        if (IntervalOrderLess(x, y) && IntervalOrderLess(y, z)) {
          EXPECT_TRUE(IntervalOrderLess(x, z));
        }
      }
    }
  }
}

TEST(IntervalOrderTest, SupportsIntersect) {
  EXPECT_TRUE(SupportsIntersect(Trapezoid::Interval(0, 5),
                                Trapezoid::Interval(5, 10)));
  EXPECT_FALSE(SupportsIntersect(Trapezoid::Interval(0, 5),
                                 Trapezoid::Interval(6, 10)));
  EXPECT_TRUE(SupportsIntersect(Trapezoid::Interval(0, 10),
                                Trapezoid::Crisp(7)));
}

TEST(IntervalOrderTest, SupportEntirelyBefore) {
  EXPECT_TRUE(SupportEntirelyBefore(Trapezoid::Interval(0, 5),
                                    Trapezoid::Interval(6, 10)));
  EXPECT_FALSE(SupportEntirelyBefore(Trapezoid::Interval(0, 5),
                                     Trapezoid::Interval(5, 10)));
  EXPECT_FALSE(SupportEntirelyBefore(Trapezoid::Interval(6, 10),
                                     Trapezoid::Interval(0, 5)));
}

TEST(IntervalOrderTest, ZeroEqualityDegreeOutsideIntersection) {
  // "For any two values a and b, d(a = b) = 0 if their intervals do not
  // intersect" -- the property that makes the merge-join window sound.
  const Trapezoid a = Trapezoid::Interval(0, 5);
  const Trapezoid b = Trapezoid::Interval(6, 10);
  EXPECT_FALSE(SupportsIntersect(a, b));
}

}  // namespace
}  // namespace fuzzydb
