#include "support/profile_oracle.hpp"

#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "hhc/bands.hpp"
#include "hhc/hex_schedule.hpp"

namespace repro::test {

using gpusim::BlockGeometry;
using gpusim::RowClass;

BlockGeometry reference_block_geometry(const stencil::ProblemSize& p,
                                       const hhc::TileSizes& ts,
                                       const hhc::TileShape& shape) {
  BlockGeometry g;
  double inner_area = 1.0;
  if (p.dim >= 2) inner_area *= static_cast<double>(p.S[1]);
  if (p.dim >= 3) inner_area *= static_cast<double>(p.S[2]);
  g.io_words = static_cast<double>(shape.input_footprint() +
                                   shape.output_footprint(p.T)) *
               inner_area;
  if (shape.level_cols.empty()) return g;

  const std::int64_t t_lo = shape.first_level;
  const std::int64_t t_hi =
      t_lo + static_cast<std::int64_t>(shape.level_cols.size());
  // A dimension the problem lacks is one band of extent 1.
  const auto bands_of = [&](int d, std::int64_t tile) {
    return hhc::SkewedBands(d < p.dim ? p.S[d] : 1, d < p.dim ? tile : 1,
                            t_lo, t_hi, d < p.dim ? shape.radius : 0);
  };
  const hhc::SkewedBands b2 = bands_of(1, ts.tS2);
  const hhc::SkewedBands b3 = bands_of(2, ts.tS3);

  // Points per barrier row, keyed by count, over every (band2, band3)
  // sub-prism of the tile.
  std::map<std::int64_t, std::int64_t> hist;
  for (std::int64_t i2 = 0; i2 < b2.num_bands(); ++i2) {
    for (std::int64_t i3 = 0; i3 < b3.num_bands(); ++i3) {
      bool any = false;
      for (std::size_t lev = 0; lev < shape.level_cols.size(); ++lev) {
        const std::int64_t t = t_lo + static_cast<std::int64_t>(lev);
        const std::int64_t pts = shape.level_cols[lev].size() *
                                 b2.range_at(i2, t).size() *
                                 b3.range_at(i3, t).size();
        if (pts == 0) continue;
        any = true;
        ++hist[pts];
        g.total_points += pts;
        ++g.level_syncs;
      }
      if (any) ++g.busy_pieces;
    }
  }
  for (const auto& [points, weight] : hist) g.bins.push_back({points, weight});
  return g;
}

ReferenceProfile build_reference(const stencil::ProblemSize& p,
                                 const hhc::TileSizes& ts,
                                 std::int64_t radius, bool enumerate_bands) {
  ReferenceProfile out;
  try {
    hhc::validate(ts, p.dim);
    const hhc::HexSchedule sched(p.T, p.S[0], ts.tT, ts.tS1, radius);

    using RowKey = std::tuple<int, std::int64_t, std::int64_t, std::int64_t>;
    std::map<RowKey, std::size_t> first;  // key -> its first class
    std::vector<RowClass> classes;
    std::vector<hhc::TileShape> shapes;
    std::int64_t empty_rows = 0;
    for (std::int64_t r = 0; r < sched.num_rows(); ++r) {
      const std::int64_t blocks = sched.tiles_in_row(r);
      if (blocks <= 0) {
        ++empty_rows;
        continue;
      }
      const hhc::Interval levels = sched.row_levels(r);
      const std::int64_t base = sched.row_base(r);
      const RowKey key{static_cast<int>(sched.row_family(r)),
                       levels.lo - base, levels.hi - base, blocks};
      const std::int64_t q_mid =
          sched.q_begin(r) + (sched.q_end(r) - sched.q_begin(r)) / 2;
      hhc::TileShape shape = sched.shape(r, q_mid);
      BlockGeometry geom = enumerate_bands
                               ? reference_block_geometry(p, ts, shape)
                               : gpusim::block_geometry(p, ts, shape);
      const auto it = first.find(key);
      if (it != first.end() && classes[it->second].geom == geom) {
        ++classes[it->second].mult;
        continue;
      }
      if (it != first.end()) {
        ++out.mismatches;
      } else {
        first.emplace(key, classes.size());
      }
      classes.push_back({1, blocks, std::move(geom)});
      shapes.push_back(std::move(shape));
    }
    out.valid = true;
    out.profile = gpusim::TileCostProfile::from_classes(
        p, ts, radius, std::move(classes), std::move(shapes), empty_rows);
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace repro::test
