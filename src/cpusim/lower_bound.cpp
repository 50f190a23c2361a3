#include "cpusim/lower_bound.hpp"

#include <algorithm>
#include <limits>

#include "hhc/footprint.hpp"

namespace repro::cpusim {

LowerBound lower_bound(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts) {
  LowerBound lb;
  const TileGeometry g = analyze_tile(dev, def, p, ts);
  if (!g.feasible) {
    lb.seconds = std::numeric_limits<double>::infinity();
    return lb;
  }
  lb.feasible = true;

  // Per sub-tile the simulator charges
  //   max(fill_rest, compute + service) + fill_head + fence
  // which is >= compute + fill_head + fence, so relaxing each of those
  // three keeps the bound admissible.
  const double rows = static_cast<double>(g.wavefronts);
  const double subs =
      static_cast<double>(g.rounds) * static_cast<double>(g.n_sub);
  const double word_bytes = static_cast<double>(hhc::kWordBytes);

  // Compute: the simulator charges groups_avg >= volume_avg / n_v >=
  // volume / n_v SIMD groups per sub-tile (chunking and remainder
  // ceilings and the family average only add), each at cyc_group
  // cycles, inflated by stall/oversub factors >= 1. Relax all of them.
  const double groups_floor =
      static_cast<double>(g.volume) / static_cast<double>(dev.vector_words);
  lb.compute_floor = rows * subs * groups_floor * g.cyc_group / dev.clock_hz;

  // Memory: only the un-hidable fill head, with line_waste -> 1 and
  // the narrow-family io footprint (<= the charged family average);
  // fill_rest and service overlap with compute and are dropped.
  const double head_bytes =
      2.0 * static_cast<double>(g.io_words) * word_bytes;
  lb.memory_floor =
      rows * subs * (dev.mem_latency_s + head_bytes / dev.mem_bandwidth_bps);

  // Overheads: exact — the simulator charges tT + 2 fences per
  // sub-tile and one parallel-region launch per wavefront row.
  lb.overhead_floor =
      rows * (dev.parallel_launch_s +
              subs * static_cast<double>(ts.tT + 2) * dev.step_fence_s);

  lb.seconds = lb.compute_floor + lb.memory_floor + lb.overhead_floor;
  return lb;
}

LowerBound lower_bound(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr) {
  if (!strands_in_range(thr)) {
    LowerBound lb;
    lb.seconds = std::numeric_limits<double>::infinity();
    return lb;
  }
  return lower_bound(dev, def, p, ts);
}

}  // namespace repro::cpusim
