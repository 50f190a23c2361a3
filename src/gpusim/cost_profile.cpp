#include "gpusim/cost_profile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/math_util.hpp"
#include "hhc/bands.hpp"

namespace repro::gpusim {

namespace {

using hhc::BandClass;
using hhc::HexSchedule;
using hhc::SkewedBands;
using hhc::TileShape;
using repro::ceil_div;

// Sort by point count and merge equal buckets, so any grouping of
// bands into pieces (classes here, one band at a time in the
// reference walk the parity tests run) gives the same histogram.
void canonicalize(std::vector<PointBin>& bins) {
  std::sort(bins.begin(), bins.end(),
            [](const PointBin& a, const PointBin& b) {
              return a.points < b.points;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (out > 0 && bins[out - 1].points == bins[i].points) {
      bins[out - 1].weight += bins[i].weight;
    } else {
      bins[out++] = bins[i];
    }
  }
  bins.resize(out);
}

// Global traffic: the per-(t,s1)-line footprint times the inner area
// the block sweeps (Eqns 13/24 are this same product for the
// unclipped case), in and out.
double io_words_of(const stencil::ProblemSize& p, const TileShape& shape) {
  double inner_area = 1.0;
  if (p.dim >= 2) inner_area *= static_cast<double>(p.S[1]);
  if (p.dim >= 3) inner_area *= static_cast<double>(p.S[2]);
  return static_cast<double>(shape.input_footprint() +
                             shape.output_footprint(p.T)) *
         inner_area;
}

// The histogram of one tile shape, with the aggregates it implies and
// no traffic (io_words 0). Each (tile, band2-class, band3-class)
// piece is `mult` congruent sub-prisms, each a stack of
// barrier-separated rows of width * i2 * i3 iterations.
BlockGeometry histogram_of(const stencil::ProblemSize& p,
                           const hhc::TileSizes& ts, const TileShape& shape) {
  BlockGeometry g;
  if (shape.level_cols.empty()) return g;

  const std::int64_t radius = shape.radius;
  const std::int64_t t_lo = shape.first_level;
  const std::int64_t t_hi =
      t_lo + static_cast<std::int64_t>(shape.level_cols.size());

  const auto add_piece = [&](const SkewedBands* b2, const SkewedBands* b3,
                             std::int64_t rep2, std::int64_t rep3,
                             std::int64_t mult) {
    bool any = false;
    for (std::size_t lev = 0; lev < shape.level_cols.size(); ++lev) {
      const std::int64_t width = shape.level_cols[lev].size();
      if (width == 0) continue;
      const std::int64_t t = t_lo + static_cast<std::int64_t>(lev);
      const std::int64_t i2 = b2 ? b2->range_at(rep2, t).size() : 1;
      if (i2 == 0) continue;
      const std::int64_t i3 = b3 ? b3->range_at(rep3, t).size() : 1;
      if (i3 == 0) continue;
      any = true;
      const std::int64_t points = width * i2 * i3;
      g.bins.push_back({points, mult});
      g.total_points += points * mult;
      g.level_syncs += mult;  // barrier between dependent rows
    }
    if (any) g.busy_pieces += mult;  // barriers around the copies
  };

  if (p.dim == 1) {
    add_piece(nullptr, nullptr, 0, 0, 1);
  } else if (p.dim == 2) {
    const SkewedBands bands2(p.S[1], ts.tS2, t_lo, t_hi, radius);
    bands2.for_each_class([&](const BandClass& c2) {
      add_piece(&bands2, nullptr, c2.rep_b, 0, c2.mult);
    });
  } else {
    const SkewedBands bands2(p.S[1], ts.tS2, t_lo, t_hi, radius);
    const SkewedBands bands3(p.S[2], ts.tS3, t_lo, t_hi, radius);
    bands2.for_each_class([&](const BandClass& c2) {
      bands3.for_each_class([&](const BandClass& c3) {
        add_piece(&bands2, &bands3, c2.rep_b, c3.rep_b, c2.mult * c3.mult);
      });
    });
  }
  canonicalize(g.bins);
  return g;
}

// level_syncs and busy_pieces of a shape at (tS2, tS3), in O(1) per
// band class: every level of a representative shape has work, so a
// piece's barrier rows are the levels of its band's non-empty level
// interval (SkewedBands::busy_levels; in 3D the intersection of both
// bands' intervals).
void add_barriers(BlockGeometry& g, const stencil::ProblemSize& p,
                  const hhc::TileSizes& ts, const TileShape& shape) {
  const std::int64_t levels =
      static_cast<std::int64_t>(shape.level_cols.size());
  const auto add_piece = [&](hhc::Interval busy, std::int64_t mult) {
    if (busy.empty()) return;
    g.level_syncs += mult * busy.size();
    g.busy_pieces += mult;
  };
  if (levels == 0) return;
  const std::int64_t t_lo = shape.first_level;
  const std::int64_t t_hi = t_lo + levels;
  if (p.dim == 1) {
    add_piece({0, levels}, 1);
  } else if (p.dim == 2) {
    const SkewedBands bands2(p.S[1], ts.tS2, t_lo, t_hi, shape.radius);
    bands2.for_each_class([&](const BandClass& c2) {
      add_piece(bands2.busy_levels(c2.rep_b), c2.mult);
    });
  } else {
    const SkewedBands bands2(p.S[1], ts.tS2, t_lo, t_hi, shape.radius);
    const SkewedBands bands3(p.S[2], ts.tS3, t_lo, t_hi, shape.radius);
    bands2.for_each_class([&](const BandClass& c2) {
      const hhc::Interval busy2 = bands2.busy_levels(c2.rep_b);
      if (busy2.empty()) return;
      bands3.for_each_class([&](const BandClass& c3) {
        const hhc::Interval busy3 = bands3.busy_levels(c3.rep_b);
        add_piece({std::max(busy2.lo, busy3.lo), std::min(busy2.hi, busy3.hi)},
                  c2.mult * c3.mult);
      });
    });
  }
}

}  // namespace

BlockGeometry block_geometry(const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::TileShape& shape) {
  BlockGeometry g = histogram_of(p, ts, shape);
  g.io_words = io_words_of(p, shape);
  return g;
}

BlockGeometry block_bounds(const stencil::ProblemSize& p,
                           const hhc::TileSizes& ts,
                           const hhc::TileShape& shape) {
  // The bands partition the inner extents at every level, so the
  // block's points are its shape's points times the inner area.
  BlockGeometry g;
  g.io_words = io_words_of(p, shape);
  std::int64_t inner_points = 1;
  if (p.dim >= 2) inner_points *= p.S[1];
  if (p.dim >= 3) inner_points *= p.S[2];
  g.total_points = shape.points() * inner_points;
  add_barriers(g, p, ts, shape);
  return g;
}

namespace {

// log2 of a positive power of two, -1 otherwise.
int pow2_shift(std::int64_t v) noexcept {
  return (v > 0 && (v & (v - 1)) == 0)
             ? std::countr_zero(static_cast<std::uint64_t>(v))
             : -1;
}

// The per-row unit fold of stage two, behind geometry_iter_units
// (and through it price_block and the event simulator's per-tile
// pricing). HHC assigns the iterations of each (barrier-separated)
// tile row statically to the block's threads, so a row of `points`
// costs ceil(points / threads) serial iterations per thread, issued
// in ceil(active / n_v) lane waves with warp-rounded active threads.
// This is the thread-count effect the analytical model deliberately
// ignores (Section 7) and the empirical thread-count step tunes.
//
// When the rounded thread count and n_v are powers of two (every 2D
// thread config of the default sweep, and gtx980's n_v = 128) the
// ceil-divisions become shifts and the fold is branch-free; shift and
// division compute the same quotients on the same non-negative
// integers, so the fast path is exact, not approximate.
struct UnitFold {
  std::int64_t threads_r;
  std::int64_t n_v;
  int tr_shift;
  int nv_shift;

  UnitFold(int threads, int n_v_in) noexcept
      : threads_r(repro::round_up<std::int64_t>(std::max(threads, 1), 32)),
        n_v(std::max(n_v_in, 1)),
        tr_shift(pow2_shift(threads_r)),
        nv_shift(pow2_shift(n_v)) {}

  std::int64_t fold(const std::vector<PointBin>& bins) const noexcept {
    std::int64_t units = 0;
    if (tr_shift >= 0 && nv_shift >= 0) {
      const std::int64_t tr_m1 = threads_r - 1;
      const std::int64_t nv_m1 = n_v - 1;
      for (const PointBin& b : bins) {
        const std::int64_t per_thread = (b.points + tr_m1) >> tr_shift;
        const std::int64_t active =
            (std::min(b.points, threads_r) + 31) & ~std::int64_t{31};
        const std::int64_t waves = (active + nv_m1) >> nv_shift;
        units += b.weight * (per_thread * waves);
      }
    } else {
      for (const PointBin& b : bins) {
        const std::int64_t per_thread = ceil_div(b.points, threads_r);
        const std::int64_t active =
            repro::round_up<std::int64_t>(std::min(b.points, threads_r), 32);
        const std::int64_t waves = ceil_div(active, n_v);
        units += b.weight * (per_thread * waves);
      }
    }
    return units;
  }
};

}  // namespace

std::int64_t geometry_iter_units(const BlockGeometry& g, int threads,
                                 int n_v) {
  return UnitFold(threads, n_v).fold(g.bins);
}

BlockWork price_block(const DeviceParams& dev, const BlockGeometry& g,
                      int threads, double cyc_iter) {
  const std::int64_t units = geometry_iter_units(g, threads, dev.n_v);
  BlockWork bw;
  bw.compute_s = (static_cast<double>(units) * cyc_iter +
                  static_cast<double>(g.sync_count()) * dev.sync_cycles) /
                 dev.clock_hz;
  bw.io_bytes = g.io_words * 4.0;
  return bw;
}

TileCostProfile TileCostProfile::from_classes(
    const stencil::ProblemSize& p, const hhc::TileSizes& ts,
    std::int64_t radius, std::vector<RowClass> classes,
    std::vector<hhc::TileShape> rep_shapes, std::int64_t empty_rows) {
  for (const TileShape& shape : rep_shapes) {
    for (const hhc::Interval& cols : shape.level_cols) {
      if (cols.empty()) {
        throw std::invalid_argument(
            "TileCostProfile::from_classes: a representative shape has an "
            "empty level");
      }
    }
  }
  TileCostProfile prof;
  prof.valid_ = true;
  prof.histograms_ = true;
  prof.classes_ = std::move(classes);
  prof.empty_rows_ = empty_rows;
  prof.p_ = p;
  prof.ts_ = ts;
  prof.radius_ = radius;
  prof.rep_shapes_ =
      std::make_shared<const std::vector<TileShape>>(std::move(rep_shapes));
  return prof;
}

TileCostProfile TileCostProfile::invalid(const stencil::ProblemSize& p,
                                         const hhc::TileSizes& ts,
                                         std::int64_t radius,
                                         std::string error) {
  TileCostProfile prof;
  prof.error_ = std::move(error);
  prof.p_ = p;
  prof.ts_ = ts;
  prof.radius_ = radius;
  return prof;
}

const std::vector<TileShape>& TileCostProfile::rep_shapes() const noexcept {
  static const std::vector<TileShape> kNone;
  return rep_shapes_ ? *rep_shapes_ : kNone;
}

TileCostProfile TileCostProfile::build_step(const hhc::TileSizes& ts) const {
  if (!valid_ || ts.tT != ts_.tT || ts.tS1 != ts_.tS1) {
    return build_bounds(p_, ts, radius_);
  }
  try {
    hhc::validate(ts, p_.dim);
    TileCostProfile prof;
    prof.valid_ = true;
    prof.classes_.reserve(classes_.size());
    // Points and traffic depend on the shape and the problem alone;
    // only the barrier counts see the new inner extents.
    for (std::size_t i = 0; i < classes_.size(); ++i) {
      BlockGeometry g;
      g.total_points = classes_[i].geom.total_points;
      g.io_words = classes_[i].geom.io_words;
      add_barriers(g, p_, ts, (*rep_shapes_)[i]);
      prof.classes_.push_back({classes_[i].mult, classes_[i].blocks,
                               std::move(g)});
    }
    prof.empty_rows_ = empty_rows_;
    prof.p_ = p_;
    prof.ts_ = ts;
    prof.radius_ = radius_;
    prof.rep_shapes_ = rep_shapes_;
    return prof;
  } catch (const std::invalid_argument& e) {
    return invalid(p_, ts, radius_, e.what());
  }
}

TileCostProfile TileCostProfile::with_histograms() const {
  TileCostProfile prof = *this;
  if (prof.has_histograms()) return prof;
  for (std::size_t i = 0; i < prof.classes_.size(); ++i) {
    BlockGeometry& g = prof.classes_[i].geom;
    const double io_words = g.io_words;
    g = histogram_of(p_, ts_, (*rep_shapes_)[i]);
    g.io_words = io_words;
  }
  prof.histograms_ = true;
  return prof;
}

TileCostProfile TileCostProfile::build(const stencil::ProblemSize& p,
                                       const hhc::TileSizes& ts,
                                       std::int64_t radius) {
  return classify(p, ts, radius, /*histograms=*/true);
}

TileCostProfile TileCostProfile::build_bounds(const stencil::ProblemSize& p,
                                              const hhc::TileSizes& ts,
                                              std::int64_t radius) {
  return classify(p, ts, radius, /*histograms=*/false);
}

TileCostProfile TileCostProfile::classify(const stencil::ProblemSize& p,
                                          const hhc::TileSizes& ts,
                                          std::int64_t radius,
                                          bool histograms) {
  try {
    hhc::validate(ts, p.dim);
    const HexSchedule sched(p.T, p.S[0], ts.tT, ts.tS1, radius);

    // Congruence key: rows with the same family, the same clipped
    // level range relative to their base, and the same tile count
    // price identically (their column-interior tiles are congruent).
    using RowKey = std::tuple<int, std::int64_t, std::int64_t, std::int64_t>;
    std::vector<RowKey> keys;  // keys[c] belongs to prof.classes_[c]
    TileCostProfile prof;
    std::vector<TileShape> rep_shapes;

    // Adds row r standing for `mult` rows of its key. The first row
    // of a key opens its class, so classes come in row order.
    const auto visit = [&](std::int64_t r, std::int64_t mult) {
      const std::int64_t blocks = sched.tiles_in_row(r);
      if (blocks <= 0) {
        prof.empty_rows_ += mult;
        return;
      }
      const hhc::Interval levels = sched.row_levels(r);
      const std::int64_t base = sched.row_base(r);
      const RowKey key{static_cast<int>(sched.row_family(r)),
                       levels.lo - base, levels.hi - base, blocks};
      const auto it = std::find(keys.begin(), keys.end(), key);
      if (it != keys.end()) {
        prof.classes_[static_cast<std::size_t>(it - keys.begin())].mult +=
            mult;
        return;
      }
      // Representative tile: column-interior, so only time-clipping
      // affects its shape (boundary tiles in s1 are a vanishing
      // fraction of a row and are priced like interior ones).
      const std::int64_t q_mid =
          sched.q_begin(r) + (sched.q_end(r) - sched.q_begin(r)) / 2;
      TileShape shape = sched.shape(r, q_mid);
      keys.push_back(key);
      prof.classes_.push_back({mult, blocks,
                               histograms ? block_geometry(p, ts, shape)
                                          : block_bounds(p, ts, shape)});
      rep_shapes.push_back(std::move(shape));
    };

    // Only row 0 and the tail rows are clipped. The interior rows
    // alternate A, B, A, ... from interior.lo and share one key per
    // family, so the first of each family stands for the rest.
    const hhc::Interval interior = sched.interior_rows();
    const std::int64_t n = interior.size();
    for (std::int64_t r = 0; r < interior.lo; ++r) visit(r, 1);
    if (n > 0) visit(interior.lo, (n + 1) / 2);
    if (n > 1) visit(interior.lo + 1, n / 2);
    for (std::int64_t r = interior.hi; r < sched.num_rows(); ++r) visit(r, 1);

    prof.valid_ = true;
    prof.histograms_ = histograms;
    prof.p_ = p;
    prof.ts_ = ts;
    prof.radius_ = radius;
    prof.rep_shapes_ =
        std::make_shared<const std::vector<TileShape>>(std::move(rep_shapes));
    return prof;
  } catch (const std::invalid_argument& e) {
    return invalid(p, ts, radius, e.what());
  }
}

std::int64_t TileCostProfile::total_rows() const noexcept {
  std::int64_t n = empty_rows_;
  for (const RowClass& c : classes_) n += c.mult;
  return n;
}

std::int64_t TileCostProfile::total_blocks() const noexcept {
  std::int64_t n = 0;
  for (const RowClass& c : classes_) n += c.mult * c.blocks;
  return n;
}

}  // namespace repro::gpusim
