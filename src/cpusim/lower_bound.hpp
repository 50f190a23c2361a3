// Exact lower bounds on the CPU simulator's measured time.
//
// The simulator prices a point in two steps (cpusim/timing.hpp): a
// jitter-free base simulation (simulate_jitter_free), then a final
// multiplicative jitter factor, the smallest of `runs` draws for
// measure_best_of and one draw for simulate_time. Every draw is
// hash_jitter(key, a) = 1 + a * u with u in [0, 1), so it is >= 1
// whenever jitter_amplitude a >= 0 — which the CPU device audit
// enforces for every shipped and registered descriptor. Multiplying
// by a factor >= 1 never lowers an IEEE double, so the base itself is
// a floor, and the tightest one that holds for every run id:
//
//   point bound = simulate_jitter_free(...).seconds
//               <= simulate_time(run_id) for every run_id
//               <= measure_best_of(runs)  (bit for bit, not just in
//                                          exact arithmetic)
//
// The point bound reads the strand count like the price does. A
// tile's floor over a strand axis is the minimum of its point
// bounds, so no point of the axis can beat it. The strand count
// reaches a price only through the compute time per sub-tile, and
// the price is non-decreasing in it, so the floor needs only the
// smallest compute term and a single pricing body (min_jitter_free).
// That term is found from a floor of each strand count's compute
// term, taken at the one-strand SIMD group count (no strand count
// issues fewer groups): one O(log) strand step per tile computes it,
// and a strand count is stepped exactly only while its floor is
// below the smallest exact term so far, usually once per tile.
// tuner::Session analyzes a CPU tile once per visit (TileFloors),
// evaluates its floor over the visit's strand axis on the first miss
// that needs a bound, prunes every miss while the floor exceeds the
// incumbent, and bounds each miss by its own point bound otherwise:
// the pruned set is the one the point bounds alone would prune.
#pragma once

#include <span>

#include "cpusim/device.hpp"
#include "cpusim/timing.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"

namespace repro::cpusim {

struct LowerBound {
  bool feasible = false;
  // The floor; +infinity for an infeasible configuration (it can
  // never become the incumbent, so any incumbent prunes it).
  double seconds = 0.0;
};

// The bounds of one tile, analyzed once.
class TileFloors {
 public:
  TileFloors(const CpuParams& dev, const stencil::StencilDef& def,
             const stencil::ProblemSize& p, const hhc::TileSizes& ts);

  // The point bound of strand config `thr`.
  LowerBound point(const hhc::ThreadConfig& thr) const;
  // The tile floor over `thrs`: the minimum of their point bounds
  // (infeasible, +infinity, when none is feasible).
  LowerBound over(std::span<const hhc::ThreadConfig> thrs) const;

 private:
  const CpuParams* dev_;
  hhc::TileSizes ts_;
  TileGeometry tile_;
};

// One point: TileFloors(dev, def, p, ts).point(thr).
LowerBound lower_bound(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr);

}  // namespace repro::cpusim
