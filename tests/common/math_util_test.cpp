#include "common/math_util.hpp"

#include <gtest/gtest.h>

namespace repro {
namespace {

TEST(MathUtil, CeilDivBasics) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div<std::int64_t>(8191, 4096), 2);
}

TEST(MathUtil, FloorDivAndRounding) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(round_up(5, 4), 8);
  EXPECT_EQ(round_up(8, 4), 8);
  EXPECT_EQ(round_down(7, 4), 4);
  EXPECT_EQ(round_down(8, 4), 8);
  EXPECT_TRUE(is_even(0));
  EXPECT_TRUE(is_even(4));
  EXPECT_FALSE(is_even(3));
}

TEST(MathUtil, SumCeilDivMatchesBruteForce) {
  for (std::int64_t lo : {1, 3, 8}) {
    for (std::int64_t hi : {7, 16, 33}) {
      for (std::int64_t d : {1, 4, 128}) {
        std::int64_t expect = 0;
        for (std::int64_t x = lo; x <= hi; x += 2) expect += (x + d - 1) / d;
        EXPECT_EQ(sum_ceil_div(lo, hi, 2, d), expect)
            << "lo=" << lo << " hi=" << hi << " d=" << d;
      }
    }
  }
}

TEST(MathUtil, FloorSumMatchesBruteForce) {
  for (std::int64_t n : {0, 1, 2, 7, 40}) {
    for (std::int64_t m : {1, 2, 3, 32, 127}) {
      for (std::int64_t a : {0, 1, 5, 32, 97, 1000}) {
        for (std::int64_t b : {0, 1, 31, 64, 999}) {
          std::int64_t expect = 0;
          for (std::int64_t i = 0; i < n; ++i) expect += (a * i + b) / m;
          EXPECT_EQ(floor_sum(n, m, a, b), expect)
              << "n=" << n << " m=" << m << " a=" << a << " b=" << b;
        }
      }
    }
  }
  static_assert(floor_sum(4, 3, 2, 1) == 0 + 1 + 1 + 2);
}

TEST(MathUtil, ClosedFormIsOptimisticLowerBound) {
  // Relaxing ceilings can only decrease the sum.
  for (std::int64_t lo : {2, 5}) {
    for (std::int64_t hi : {21, 64}) {
      for (std::int64_t d : {3, 128}) {
        EXPECT_LE(sum_div_closed_form(lo, hi, 2, d),
                  static_cast<double>(sum_ceil_div(lo, hi, 2, d)) + 1e-9);
      }
    }
  }
}

TEST(MathUtil, ClosedFormEmptyRange) {
  EXPECT_EQ(sum_div_closed_form(10, 4, 2, 3), 0.0);
}

}  // namespace
}  // namespace repro
