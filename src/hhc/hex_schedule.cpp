#include "hhc/hex_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace repro::hhc {

namespace {

// Floor division that is correct for negative numerators (C++ integer
// division truncates toward zero).
std::int64_t floor_div_any(std::int64_t a, std::int64_t b) {
  assert(b > 0);
  std::int64_t q = a / b;
  if ((a % b != 0) && (a < 0)) --q;
  return q;
}

// Hexagon half-width offset at local level y in [0, tT) for a
// stencil of dependence radius r (the oblique sides have slope r).
std::int64_t growth(std::int64_t y, std::int64_t tT, std::int64_t r) {
  return r * std::min(y, tT - 1 - y);
}

// Intersection size of two half-open intervals.
std::int64_t overlap(const Interval& a, const Interval& b) {
  return Interval{std::max(a.lo, b.lo), std::min(a.hi, b.hi)}.size();
}

}  // namespace

std::int64_t TileShape::input_footprint() const {
  std::int64_t mi = 0;
  const Interval domain{0, s1_domain};
  for (std::size_t lev = 0; lev < level_cols.size(); ++lev) {
    const Interval& iv = level_cols[lev];
    if (iv.empty()) continue;
    const Interval read{iv.lo - radius, iv.hi + radius};
    const std::int64_t in_domain = overlap(read, domain);
    // Cells produced by this tile at the previous level satisfy part
    // of the read set; the remainder comes from global memory (it was
    // produced by earlier rows, or is initial data).
    std::int64_t produced_here = 0;
    if (lev > 0 && !level_cols[lev - 1].empty()) {
      produced_here = overlap(read, level_cols[lev - 1]);
    }
    mi += in_domain - produced_here;
  }
  return mi;
}

std::int64_t TileShape::output_footprint(std::int64_t t_end) const {
  std::int64_t mo = 0;
  for (std::size_t lev = 0; lev < level_cols.size(); ++lev) {
    const Interval& iv = level_cols[lev];
    if (iv.empty()) continue;
    const std::int64_t t = first_level + static_cast<std::int64_t>(lev);
    const bool last_level_of_tile = (lev + 1 == level_cols.size()) ||
                                    level_cols[lev + 1].empty();
    if (t + 1 >= t_end || last_level_of_tile) {
      // Final results, or every consumer lies in another tile.
      mo += iv.size();
      continue;
    }
    // A produced cell s stays internal iff each of its in-domain
    // consumers (t+1, s-radius .. s+radius) is computed by this tile.
    const Interval& next = level_cols[lev + 1];
    std::int64_t internal_lo = next.lo + radius;
    std::int64_t internal_hi = next.hi - radius;  // exclusive bound below
    if (next.lo == 0) internal_lo = 0;  // no consumers below the domain
    if (next.hi == s1_domain) internal_hi = s1_domain;
    const Interval internal{internal_lo, internal_hi};
    mo += iv.size() - overlap(iv, internal);
  }
  return mo;
}

HexSchedule::HexSchedule(std::int64_t T, std::int64_t S1, std::int64_t tT,
                         std::int64_t tS1, std::int64_t radius)
    : T_(T),
      S1_(S1),
      tT_(tT),
      tS1_(tS1),
      r_(radius),
      H_(tT / 2),
      P_(2 * tS1 + radius * tT) {
  if (T < 1 || S1 < 1) throw std::invalid_argument("HexSchedule: empty domain");
  if (tT < 2 || tT % 2 != 0) {
    throw std::invalid_argument("HexSchedule: tT must be even and >= 2");
  }
  if (tS1 < 1) throw std::invalid_argument("HexSchedule: tS1 must be >= 1");
  if (radius < 1) throw std::invalid_argument("HexSchedule: radius must be >= 1");
  if (tS1 < radius) {
    // At the hexagon's flat middle the reads overshoot the tile by
    // `radius` columns into the neighbouring earlier-row tile, whose
    // narrowest extent there is tS1; tS1 < radius would create a
    // within-wavefront dependence and break one-row-per-kernel.
    throw std::invalid_argument("HexSchedule: tS1 must be >= radius");
  }
}

std::int64_t HexSchedule::num_rows() const noexcept {
  // A_m exists iff m*tT < T; B_m exists iff m*tT - H < T (m >= 0).
  const std::int64_t n_a = (T_ + tT_ - 1) / tT_;
  const std::int64_t n_b = floor_div_any(T_ - 1 + H_, tT_) + 1;
  return n_a + n_b;
}

Family HexSchedule::row_family(std::int64_t r) const noexcept {
  return (r % 2 == 0) ? Family::kB : Family::kA;
}

std::int64_t HexSchedule::row_base(std::int64_t r) const noexcept {
  if (row_family(r) == Family::kB) return (r / 2) * tT_ - H_;
  return ((r - 1) / 2) * tT_;
}

Interval HexSchedule::row_levels(std::int64_t r) const noexcept {
  const std::int64_t base = row_base(r);
  return Interval{base, base + tT_}.clipped(0, T_);
}

Interval HexSchedule::interior_rows() const noexcept {
  return Interval{1, std::max<std::int64_t>(1, std::min(T_ / H_, num_rows()))};
}

std::int64_t HexSchedule::base_col(std::int64_t r, std::int64_t q) const
    noexcept {
  const std::int64_t shift =
      (row_family(r) == Family::kB) ? (tS1_ + r_ * (H_ - 1)) : 0;
  return q * P_ + shift;
}

std::int64_t HexSchedule::base_width(std::int64_t r) const noexcept {
  return (row_family(r) == Family::kB) ? (tS1_ + 2 * r_) : tS1_;
}

std::int64_t HexSchedule::q_begin(std::int64_t r) const noexcept {
  // Largest half-width the clipped levels of this row can reach.
  const Interval levels = row_levels(r);
  const std::int64_t base = row_base(r);
  const std::int64_t ylo = levels.lo - base;
  const std::int64_t yhi = levels.hi - base;  // exclusive
  std::int64_t gmax =
      std::max(growth(ylo, tT_, r_), growth(yhi - 1, tT_, r_));
  if (ylo <= H_ - 1 && H_ - 1 <= yhi - 1) gmax = r_ * (H_ - 1);
  const std::int64_t shift =
      (row_family(r) == Family::kB) ? (tS1_ + r_ * (H_ - 1)) : 0;
  // Smallest q with q*P + shift + base_width + gmax > 0.
  return floor_div_any(-(shift + base_width(r) + gmax), P_) + 1;
}

std::int64_t HexSchedule::q_end(std::int64_t r) const noexcept {
  const Interval levels = row_levels(r);
  const std::int64_t base = row_base(r);
  const std::int64_t ylo = levels.lo - base;
  const std::int64_t yhi = levels.hi - base;
  std::int64_t gmax =
      std::max(growth(ylo, tT_, r_), growth(yhi - 1, tT_, r_));
  if (ylo <= H_ - 1 && H_ - 1 <= yhi - 1) gmax = r_ * (H_ - 1);
  const std::int64_t shift =
      (row_family(r) == Family::kB) ? (tS1_ + r_ * (H_ - 1)) : 0;
  // Largest q with q*P + shift - gmax < S1, exclusive bound.
  return floor_div_any(S1_ - 1 + gmax - shift, P_) + 1;
}

Interval HexSchedule::cols_at(std::int64_t r, std::int64_t q,
                              std::int64_t t) const noexcept {
  const std::int64_t y = t - row_base(r);
  if (y < 0 || y >= tT_) return {};
  const std::int64_t g = growth(y, tT_, r_);
  const std::int64_t c0 = base_col(r, q);
  return {c0 - g, c0 + base_width(r) + g};
}

TileShape HexSchedule::shape(std::int64_t r, std::int64_t q) const {
  const Interval levels = row_levels(r);
  TileShape s;
  s.s1_domain = S1_;
  s.radius = r_;
  s.first_level = levels.lo;
  s.level_cols.reserve(static_cast<std::size_t>(levels.size()));
  for (std::int64_t t = levels.lo; t < levels.hi; ++t) {
    s.level_cols.push_back(cols_at(r, q, t).clipped(0, S1_));
  }
  // Trim empty leading/trailing levels so first_level is meaningful.
  while (!s.level_cols.empty() && s.level_cols.front().empty()) {
    s.level_cols.erase(s.level_cols.begin());
    ++s.first_level;
  }
  while (!s.level_cols.empty() && s.level_cols.back().empty()) {
    s.level_cols.pop_back();
  }
  return s;
}

bool HexSchedule::is_interior(std::int64_t r, std::int64_t q) const {
  const std::int64_t base = row_base(r);
  if (base < 0 || base + tT_ > T_) return false;
  const std::int64_t c0 = base_col(r, q);
  return (c0 - r_ * (H_ - 1) >= 0) &&
         (c0 + base_width(r) + r_ * (H_ - 1) <= S1_);
}

std::int64_t HexSchedule::total_points() const {
  std::int64_t total = 0;
  for (std::int64_t r = 0; r < num_rows(); ++r) {
    for (std::int64_t q = q_begin(r); q < q_end(r); ++q) {
      total += shape(r, q).points();
    }
  }
  return total;
}

}  // namespace repro::hhc
