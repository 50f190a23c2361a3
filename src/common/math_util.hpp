// Small integer-math helpers shared by the model, the tiling geometry,
// and the simulator. All are branch-light and constexpr so they can be
// used in compile-time tests of the closed-form model identities.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>

namespace repro {

// Ceiling division for non-negative integers: ceil(a / b), b > 0.
template <std::integral T>
constexpr T ceil_div(T a, T b) {
  assert(b > 0);
  assert(a >= 0);
  return (a + b - 1) / b;
}

// Floor division (a >= 0, b > 0).
template <std::integral T>
constexpr T floor_div(T a, T b) {
  assert(b > 0);
  assert(a >= 0);
  return a / b;
}

// Smallest multiple of m that is >= a.
template <std::integral T>
constexpr T round_up(T a, T m) {
  return ceil_div(a, m) * m;
}

// Largest multiple of m that is <= a.
template <std::integral T>
constexpr T round_down(T a, T m) {
  assert(m > 0);
  return (a / m) * m;
}

template <std::integral T>
constexpr bool is_even(T a) {
  return (a % 2) == 0;
}

// Sum of floor((a*i + b) / m) for i = 0 .. n-1 (n >= 0, m > 0,
// a, b >= 0) in O(log m) steps. Each round peels the whole quotients
// a/m and b/m off every term, then counts the lattice points under
// the line y = (a*x + b) / m along the other axis, which swaps the
// roles of a and m as in Euclid's algorithm. Exact while a*n + b and
// the sum fit in int64.
constexpr std::int64_t floor_sum(std::int64_t n, std::int64_t m,
                                 std::int64_t a, std::int64_t b) {
  assert(n >= 0);
  assert(m > 0);
  assert(a >= 0);
  assert(b >= 0);
  std::int64_t acc = 0;
  while (n > 0) {
    if (a >= m) {
      acc += n * (n - 1) / 2 * (a / m);
      a %= m;
    }
    if (b >= m) {
      acc += n * (b / m);
      b %= m;
    }
    const std::int64_t y_max = a * n + b;
    if (y_max < m) break;
    n = y_max / m;
    b = y_max % m;
    const std::int64_t next_a = m;
    m = a;
    a = next_a;
  }
  return acc;
}

// Sum of ceil(x / d) for x = lo, lo+step, ..., hi (inclusive), lo >= 0,
// d > 0. This is the row-sum that appears in the per-tile compute-time
// formulas (Eqns 9, 15, 27 of the paper). Exact, O(log d): the terms
// are floor((step*i + lo + d - 1) / d), a floor_sum.
constexpr std::int64_t sum_ceil_div(std::int64_t lo, std::int64_t hi,
                                    std::int64_t step, std::int64_t d) {
  assert(step > 0);
  assert(d > 0);
  assert(lo >= 0);
  if (hi < lo) return 0;
  return floor_sum((hi - lo) / step + 1, d, step, lo + d - 1);
}

// Closed-form *optimistic* approximation of sum_ceil_div: treats the
// ceilings as exact division, i.e. sum(x)/d over the arithmetic
// progression. Used by the "closed-form" model variant; always <= the
// exact sum + number-of-terms.
constexpr double sum_div_closed_form(std::int64_t lo, std::int64_t hi,
                                     std::int64_t step, std::int64_t d) {
  assert(step > 0);
  assert(d > 0);
  if (hi < lo) return 0.0;
  const std::int64_t n = (hi - lo) / step + 1;
  const std::int64_t last = lo + (n - 1) * step;
  return static_cast<double>(n) * static_cast<double>(lo + last) / 2.0 /
         static_cast<double>(d);
}

}  // namespace repro
