#include "cpusim/lower_bound.hpp"

#include <limits>

namespace repro::cpusim {

TileFloors::TileFloors(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts)
    : dev_(&dev), ts_(ts), tile_(analyze_tile(dev, def, p, ts)) {}

LowerBound TileFloors::point(const hhc::ThreadConfig& thr) const {
  LowerBound lb;
  const SimResult base = simulate_jitter_free(*dev_, tile_, ts_, thr);
  lb.feasible = base.feasible;
  lb.seconds =
      base.feasible ? base.seconds : std::numeric_limits<double>::infinity();
  return lb;
}

LowerBound TileFloors::over(std::span<const hhc::ThreadConfig> thrs) const {
  LowerBound lb;
  lb.seconds = min_jitter_free(*dev_, tile_, ts_, thrs);
  lb.feasible = lb.seconds < std::numeric_limits<double>::infinity();
  return lb;
}

LowerBound lower_bound(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr) {
  return TileFloors(dev, def, p, ts).point(thr);
}

}  // namespace repro::cpusim
