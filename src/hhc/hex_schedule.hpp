// Exact hexagonal tiling of the outer (t, s1) plane.
//
// Construction (radius-1 stencils, the class HHC handles):
//   * tT is even; H = tT/2; the horizontal pitch is P = 2*tS1 + tT
//     (the paper's w_tile + tS + 2, Section 4.1).
//   * Family A rows have base level m*tT; the A hexagon with column
//     index q covers, at local level y in [0, tT):
//         [q*P - g(y), q*P + tS1 + g(y))   with g(y) = min(y, tT-1-y).
//   * Family B rows have base level m*tT - H, base column
//     q*P + tS1 + H - 1 and base width tS1 + 2 (one column wider on
//     each side — hexagonal tilings of a discrete plane need the two
//     staggered families to differ by exactly this much to interlock).
//
// These interlock exactly: at every time level, the A and B tiles of a
// pitch period partition the s1 axis (proved in tests by enumeration).
// Rows ordered by base level (B_0, A_0, B_1, A_1, ...) form the
// wavefronts of Eqn (2): each row only reads values produced by
// earlier rows or the initial data, and tiles within a row are
// mutually independent, so one row = one GPU kernel call.
//
// The model's approximations are Nw ~ 2*ceil(T/tT) (Eqn 3) and
// w(i) ~ ceil(S1 / (2*tS1 + tT)) (Eqn 5); this class provides the
// exact counts the approximations are validated against.
#pragma once

#include <cstdint>
#include <vector>

#include "hhc/interval.hpp"
#include "hhc/tile_sizes.hpp"

namespace repro::hhc {

enum class Family : std::uint8_t { kA, kB };

// Exact shape of one (possibly boundary-clipped) hexagonal tile:
// per-level column intervals, plus its exact global-memory footprints
// per unit of inner-dimension area.
struct TileShape {
  std::int64_t first_level = 0;  // absolute t of level_cols[0]
  std::int64_t s1_domain = 0;    // S1, for boundary-aware footprints
  std::int64_t radius = 1;       // dependence radius of the stencil
  std::vector<Interval> level_cols;

  std::int64_t points() const noexcept {
    std::int64_t n = 0;
    for (const auto& iv : level_cols) n += iv.size();
    return n;
  }
  bool empty() const noexcept { return points() == 0; }

  // Cells of the t-1 planes read by this tile but not produced in it
  // (its input footprint m_i), counted exactly. For a full interior
  // tile this is tS1 + 2*tT - 2, vs the model's tS1 + 2*tT.
  std::int64_t input_footprint() const;

  // Cells produced here and read by other tiles or surviving as the
  // final result (output footprint m_o). `t_end` is the exclusive
  // last time level of the whole computation.
  std::int64_t output_footprint(std::int64_t t_end) const;
};

class HexSchedule {
 public:
  // Iteration space: t in [0, T), s1 in [0, S1). `radius` is the
  // dependence radius of the stencil (Section 7, "Generality": for
  // higher-order stencils the hexagon slopes scale by the radius).
  HexSchedule(std::int64_t T, std::int64_t S1, std::int64_t tT,
              std::int64_t tS1, std::int64_t radius = 1);

  std::int64_t T() const noexcept { return T_; }
  std::int64_t S1() const noexcept { return S1_; }
  std::int64_t tT() const noexcept { return tT_; }
  std::int64_t tS1() const noexcept { return tS1_; }
  std::int64_t radius() const noexcept { return r_; }
  std::int64_t pitch() const noexcept { return P_; }

  // Exact number of wavefront rows (kernel calls), Nw.
  std::int64_t num_rows() const noexcept;

  Family row_family(std::int64_t r) const noexcept;
  // Base (unclipped) level of row r; may be negative for row 0 (B_0).
  std::int64_t row_base(std::int64_t r) const noexcept;
  // Clipped level interval of row r within [0, T).
  Interval row_levels(std::int64_t r) const noexcept;

  // The rows whose levels are not clipped, [1, floor(T/H)) capped at
  // num_rows(): row r has base (r-1)*H, so it spans [base, base+tT)
  // inside [0, T) exactly for these r. They alternate A, B, A, ...
  // from row 1, and all rows of one family here are congruent (same
  // level range relative to the base, same tile count). Empty when
  // T < tT.
  Interval interior_rows() const noexcept;

  // Column-index range [q_begin, q_end) of tiles in row r that
  // intersect the domain.
  std::int64_t q_begin(std::int64_t r) const noexcept;
  std::int64_t q_end(std::int64_t r) const noexcept;
  std::int64_t tiles_in_row(std::int64_t r) const noexcept {
    return q_end(r) - q_begin(r);
  }

  // Unclipped column interval of tile (r, q) at absolute level t
  // (empty when t lies outside the tile's level range).
  Interval cols_at(std::int64_t r, std::int64_t q, std::int64_t t) const
      noexcept;

  // Exact clipped shape of tile (r, q).
  TileShape shape(std::int64_t r, std::int64_t q) const;

  // True when the tile is an interior (unclipped) hexagon; interior
  // tiles of the same family are congruent, which the timing engine
  // exploits to avoid enumerating millions of identical tiles.
  bool is_interior(std::int64_t r, std::int64_t q) const;

  // Total points over all tiles (must equal T * S1; tested).
  std::int64_t total_points() const;

  // Base (bottom-row) width of tiles in row r: tS1 for family A,
  // tS1 + 2 for family B.
  std::int64_t base_width(std::int64_t r) const noexcept;

 private:
  std::int64_t base_col(std::int64_t r, std::int64_t q) const noexcept;

  std::int64_t T_;
  std::int64_t S1_;
  std::int64_t tT_;
  std::int64_t tS1_;
  std::int64_t r_;  // dependence radius
  std::int64_t H_;  // tT/2
  std::int64_t P_;  // pitch
};

}  // namespace repro::hhc
