// Classic time-skewed tiling of the inner space dimensions (s2, s3).
//
// Within a hexagonal prism/slab, the inner dimensions are cut by the
// planes r*t + s = const into bands of width tS (normal vector
// (1,0,1) in the paper's Figure 2 for radius r = 1; for higher-order
// stencils the skew slope scales with the dependence radius). Bands
// are executed in ascending order; each dependence (t-1, s+a) with
// |a| <= r keeps r*t + s constant or decreases it, so ascending band
// order is always legal.
#pragma once

#include <cstdint>

#include "common/math_util.hpp"
#include "hhc/interval.hpp"

namespace repro::hhc {

// A group of congruent skewed bands: all interior bands of a prism
// have identical per-level extents, so consumers price one
// representative and multiply. Produced by
// SkewedBands::for_each_class().
struct BandClass {
  std::int64_t rep_b = 0;  // representative band index
  std::int64_t mult = 1;   // number of congruent bands it stands for
};

class SkewedBands {
 public:
  // Domain s in [0, S); time levels the enclosing prism spans are
  // [t_lo, t_hi) (absolute). Band index b covers r*t + s in
  // [off + b*ts, off + (b+1)*ts) where off = r*t_lo so that band 0 is
  // the first non-empty one.
  SkewedBands(std::int64_t S, std::int64_t ts, std::int64_t t_lo,
              std::int64_t t_hi, std::int64_t radius = 1) noexcept
      : S_(S), ts_(ts), t_lo_(t_lo), t_hi_(t_hi), r_(radius) {}

  // Number of bands intersecting the prism: the paper's
  // ceil((S + tT) / tS) when the prism spans tT full levels (Eqn 23),
  // generalized to ceil((S + r*tT) / tS).
  std::int64_t num_bands() const noexcept {
    const std::int64_t span =
        (S_ - 1) + r_ * (t_hi_ - 1 - t_lo_);  // max r*t + s - off
    return span / ts_ + 1;
  }

  // s-interval of band b at absolute time level t, clipped to [0, S).
  Interval range_at(std::int64_t b, std::int64_t t) const noexcept {
    const std::int64_t lo = r_ * t_lo_ + b * ts_ - r_ * t;
    return Interval{lo, lo + ts_}.clipped(0, S_);
  }

  // The levels at which band b is non-empty, relative to t_lo and
  // clipped to the prism's [0, t_hi - t_lo). range_at(b, t_lo + lev)
  // is non-empty iff b*ts - S < r*lev < (b+1)*ts, so they form one
  // interval. Needs radius >= 1.
  Interval busy_levels(std::int64_t b) const noexcept {
    if (S_ < 1) return {};
    const std::int64_t below = b * ts_ - S_;  // r*lev must exceed it
    return Interval{below < 0 ? 0 : below / r_ + 1,
                    repro::ceil_div((b + 1) * ts_, r_)}
        .clipped(0, t_hi_ - t_lo_);
  }

  std::int64_t S() const noexcept { return S_; }
  std::int64_t ts() const noexcept { return ts_; }
  std::int64_t t_lo() const noexcept { return t_lo_; }
  std::int64_t t_hi() const noexcept { return t_hi_; }
  std::int64_t radius() const noexcept { return r_; }

  // Collapse the bands into congruence classes. Band b is interior iff
  // its range is the full [.., ..+ts) at every level: b*ts >= r*span
  // (never clipped below 0) and (b+1)*ts <= S; all interior bands are
  // congruent and become one class.
  //
  // f(BandClass) once per class, in band order, without allocating.
  template <class F>
  void for_each_class(F&& f) const {
    const std::int64_t n = num_bands();
    const std::int64_t span = r_ * ((t_hi_ - 1) - t_lo_);
    const std::int64_t int_lo = span > 0 ? repro::ceil_div(span, ts_) : 0;
    const std::int64_t int_hi = S_ / ts_ - 1;  // inclusive

    if (int_lo > int_hi) {
      for (std::int64_t b = 0; b < n; ++b) f(BandClass{b, 1});
      return;
    }
    for (std::int64_t b = 0; b < int_lo; ++b) f(BandClass{b, 1});
    f(BandClass{int_lo, int_hi - int_lo + 1});
    for (std::int64_t b = int_hi + 1; b < n; ++b) f(BandClass{b, 1});
  }

 private:
  std::int64_t S_;
  std::int64_t ts_;
  std::int64_t t_lo_;
  std::int64_t t_hi_;
  std::int64_t r_;
};

}  // namespace repro::hhc
