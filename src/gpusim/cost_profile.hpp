// Two-stage tile-cost pipeline, stage one: thread-invariant geometry.
//
// Every optimizer entry point ends in simulate_time / measure_best_of,
// and a thread sweep re-prices the same (problem, tile-sizes)
// geometry for each thread count even though the HexSchedule, the
// SkewedBands and the per-level point histograms depend only on the
// problem and the tile sizes — the thread count enters the final
// pricing only through ceil(points / threads) and the warp-wave
// count. TileCostProfile sorts the wavefront rows and skewed bands
// into congruence classes. Building it costs O(classes), not
// O(rows): only the clipped rows near t = 0 and t = T are visited one
// by one, and each family's interior rows are counted in closed form
// (HexSchedule::interior_rows), the same regularity behind the
// paper's Nw ~ 2*ceil(T/tT) (Eqn 3).
//
// Stage one comes in two layers, because the tuner bounds far more
// tiles than it prices:
//   * build_bounds: the row classes and, per class, the aggregates
//     the admissible lower bound reads (total points, barrier count,
//     traffic words), in closed form: no band x level walk.
//   * with_histograms: per class, the integer histogram of
//     per-barrier-row point counts, re-derived from the stored
//     representative shapes. Only pricing needs it.
// build() is both layers at once. Pricing any ThreadConfig is then an
// O(classes x bins) fold with no schedule walk, no SkewedBands
// reconstruction and no ordered-map lookups (stage two, price_block
// below and gpusim/timing.cpp).
//
// Exactness: iteration units and barrier counts are aggregated in
// std::int64_t and converted to double once per class, so collapsing
// rows and bands into classes (or not), and adding histograms later
// or at once, cannot perturb the result — integer addition is
// associative. The parity tests exploit this: a reference under
// tests/support/ re-derives every row and enumerates every band
// individually, and its profile must equal build()'s class for class
// and price identically in every bit; a bounds-only profile must
// equal build()'s in everything but the bins.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/scheduling.hpp"
#include "hhc/hex_schedule.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"

namespace repro::gpusim {

// One bucket of the per-block point histogram: `weight` barrier-
// separated tile rows (across pieces and levels) of `points`
// iterations each.
struct PointBin {
  std::int64_t points = 0;
  std::int64_t weight = 0;

  friend bool operator==(const PointBin&, const PointBin&) = default;
};

// Thread-invariant cost geometry of one thread block (tile): the
// canonical (sorted, merged) point histogram, the aggregates the
// admissible lower bound (gpusim/lower_bound.hpp) needs, and the
// block's global<->shared traffic in words (before coalescing
// derating). A bounds-only profile leaves `bins` empty; every other
// field is exact either way.
struct BlockGeometry {
  std::vector<PointBin> bins;
  // Iterations of one block across all barrier rows: the sum of
  // points * weight over the bins, summed exactly in int64.
  std::int64_t total_points = 0;
  std::int64_t level_syncs = 0;  // barrier-separated rows with work
  std::int64_t busy_pieces = 0;  // pieces with any work (2 barriers each)
  double io_words = 0.0;

  // The exact __syncthreads count price_block charges.
  std::int64_t sync_count() const noexcept {
    return level_syncs + 2 * busy_pieces;
  }

  friend bool operator==(const BlockGeometry&, const BlockGeometry&) = default;
};

// One congruence class of wavefront rows: `mult` kernel rows of
// `blocks` tiles each, every tile priced like the class
// representative (a column-interior tile — boundary tiles in s1 are a
// vanishing fraction of a row, the same approximation the original
// row cache made).
struct RowClass {
  std::int64_t mult = 0;
  std::int64_t blocks = 0;
  BlockGeometry geom;
};

class TileCostProfile {
 public:
  // Classify the schedule's rows in O(classes): the clipped head and
  // tail rows one by one, and the first interior row of each family
  // standing for all of that family's interior rows. Invalid tile
  // geometry (odd tT, tS1 < radius, non-positive extents) yields
  // valid() == false with the reason in error(); nothing throws.
  // The result has histograms: build_bounds(...).with_histograms(),
  // in one pass.
  static TileCostProfile build(const stencil::ProblemSize& p,
                               const hhc::TileSizes& ts, std::int64_t radius);

  // The same classification with bound aggregates only: equal to
  // build() in everything but the bins, enough for
  // gpusim::lower_bound, not for pricing.
  static TileCostProfile build_bounds(const stencil::ProblemSize& p,
                                      const hhc::TileSizes& ts,
                                      std::int64_t radius);

  // A valid profile with histograms from rows already sorted into
  // classes, with rep_shapes[c] the representative tile of
  // classes[c]. The reference row walk under tests/support/ ends
  // here, so every profile is priced by the same stage two. Throws
  // std::invalid_argument when a shape has an empty level (contract 3
  // at build_step).
  static TileCostProfile from_classes(const stencil::ProblemSize& p,
                                      const hhc::TileSizes& ts,
                                      std::int64_t radius,
                                      std::vector<RowClass> classes,
                                      std::vector<hhc::TileShape> rep_shapes,
                                      std::int64_t empty_rows);

  // Incremental rebuild for a tile that differs from this profile's
  // only in the inner extents (tS2/tS3). The HexSchedule depends only
  // on (T, S1, tT, tS1, radius), so the row classification — class
  // order, multiplicities, block counts, empty rows, representative
  // shapes (shared, not copied) — carries over verbatim, and so do
  // each class's total_points and io_words (contract 1 below). Only
  // level_syncs and busy_pieces are re-derived, per band class in
  // O(1) (contract 2): bit-identical to build_bounds(), without
  // classifying the rows or computing a footprint again. Falls back
  // to build_bounds when the precondition does not hold (different
  // tT/tS1, or an invalid base). The result is bounds-only whatever
  // this profile holds.
  //
  // The closed forms rest on three facts about a representative
  // shape over its levels [t_lo, t_hi) and its skewed bands, for each
  // inner dimension of extent S, tile ts and radius r >= 1
  // (hhc::SkewedBands(S, ts, t_lo, t_hi, r)):
  //   1. The bands partition [0, S) at every level: band b covers
  //      [b*ts - r*lev, (b+1)*ts - r*lev) at level t_lo + lev, the
  //      bands are contiguous, and n = num_bands() satisfies
  //      n*ts > (S - 1) + r*(t_hi - 1 - t_lo). So a block's points are
  //      its shape's points times the inner area, whatever (tS2, tS3),
  //      and io_words, the footprints times that area, do not depend
  //      on them either.
  //   2. Band b is non-empty at level t_lo + lev iff
  //      b*ts - S < r*lev < (b+1)*ts: an interval of levels
  //      (SkewedBands::busy_levels). A piece's barrier rows are the
  //      shape's non-empty levels inside that interval, in 3D inside
  //      the intersection of both bands' intervals.
  //   3. Every level of a representative shape is non-empty:
  //      HexSchedule::shape trims the empty levels at both ends, and a
  //      hexagon's columns [c0 - g, c0 + w + g), with g = r*min(y,
  //      tT-1-y) unimodal in the level, clipped to [0, S1) are
  //      non-empty on one interval of levels. So the count in 2 is the
  //      interval's size, O(1) per band class, and no per-level data
  //      is kept with the shapes. from_classes rejects shapes with an
  //      empty level.
  TileCostProfile build_step(const hhc::TileSizes& ts) const;

  // This profile with histograms derived from the stored
  // representative shapes: bit-identical to build() for the same
  // tile. The band x level walk runs for the bins; io_words is kept
  // from this profile, not recomputed. A copy of this profile when it
  // already has them.
  TileCostProfile with_histograms() const;

  bool valid() const noexcept { return valid_; }
  const std::string& error() const noexcept { return error_; }
  // False only for a valid bounds-only profile, which stage two
  // refuses to price.
  bool has_histograms() const noexcept { return histograms_ || !valid_; }

  const std::vector<RowClass>& classes() const noexcept { return classes_; }
  // The representative tile shape of each class, in classes() order.
  const std::vector<hhc::TileShape>& rep_shapes() const noexcept;
  // Rows with no tiles intersecting the domain (launch cost only).
  std::int64_t empty_rows() const noexcept { return empty_rows_; }
  // Diagnostics: total rows/tiles the profile stands for.
  std::int64_t total_rows() const noexcept;
  std::int64_t total_blocks() const noexcept;

 private:
  using Shapes = std::shared_ptr<const std::vector<hhc::TileShape>>;

  static TileCostProfile classify(const stencil::ProblemSize& p,
                                  const hhc::TileSizes& ts,
                                  std::int64_t radius, bool histograms);
  static TileCostProfile invalid(const stencil::ProblemSize& p,
                                 const hhc::TileSizes& ts,
                                 std::int64_t radius, std::string error);

  bool valid_ = false;
  bool histograms_ = false;
  std::string error_;
  std::vector<RowClass> classes_;
  std::int64_t empty_rows_ = 0;

  // Inputs and per-class representative tile shapes, retained so
  // build_step and with_histograms can re-derive geometry without
  // classifying rows. Every profile of one (tT, tS1) shares the
  // shapes.
  stencil::ProblemSize p_{};
  hhc::TileSizes ts_{};
  std::int64_t radius_ = 1;
  Shapes rep_shapes_;
};

// Stage-one primitive (also the per-tile cost of the event-level
// cross-check simulator under tests/support/): the
// thread-invariant geometry of one exact (possibly boundary-clipped)
// tile shape, with the skewed bands collapsed into congruence
// classes.
BlockGeometry block_geometry(const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::TileShape& shape);

// The same geometry without the histogram (empty `bins`): the bound
// aggregates only, in closed form (the contracts at build_step, so
// every level of `shape` must be non-empty): the footprints once,
// total_points as the shape's points times the inner area, and the
// barrier counts in O(1) per band class.
BlockGeometry block_bounds(const stencil::ProblemSize& p,
                           const hhc::TileSizes& ts,
                           const hhc::TileShape& shape);

// Stage two, per block: fold the histogram for one thread count.
// Returns sum over bins of weight * ceil(points/threads_r) * waves,
// the exact integer the legacy per-level walk accumulated in doubles.
std::int64_t geometry_iter_units(const BlockGeometry& g, int threads,
                                 int n_v);

// Stage two, per block: compute seconds (incl. barriers) and raw
// global traffic of one block at `threads`, from profiled geometry.
BlockWork price_block(const DeviceParams& dev, const BlockGeometry& g,
                      int threads, double cyc_iter);

}  // namespace repro::gpusim
