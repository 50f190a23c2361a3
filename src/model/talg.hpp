// The analytical execution-time model of Section 4.
//
// Every formula is implemented exactly as printed, with the paper's
// equation number cited next to it. The model is *deliberately
// optimistic* (Contribution 1): it ignores thread-count effects,
// register pressure, memory-latency and scheduling overheads. Its
// purpose is to rank tile sizes near the optimum, not to predict the
// absolute time of bad configurations.
#pragma once

#include <cstdint>

#include "hhc/tile_sizes.hpp"
#include "model/params.hpp"
#include "stencil/problem.hpp"

namespace repro::model {

// How the per-tile row sums (Eqns 9, 15, 27) are evaluated:
//  * kExactCeil   — the printed sum of ceilings (default);
//  * kClosedForm  — ceilings relaxed to exact division, giving a
//    smooth function (used by the heuristic solver and the ablation
//    bench).
enum class RowSumMode : std::uint8_t { kExactCeil, kClosedForm };

// Which tile geometry the per-tile formulas describe:
//  * kPaperExact     — the equations exactly as printed, which price
//    every hexagon like the family whose base width is tS1.
//  * kFamilyAveraged — the staggered tiling is made of two interlocked
//    hexagon families whose base widths are tS1 and tS1 + 2; the
//    averaged variant prices a tile as the mean of the two. For
//    tS1 + tT/2 >> 1 the two coincide; for degenerate tiles the
//    printed formulas undercount compute by up to 2x, which would let
//    junk configurations into the within-10% candidate set, so the
//    averaged variant is the default for optimization.
enum class TileGeometryMode : std::uint8_t { kPaperExact, kFamilyAveraged };

struct ModelInputs {
  HardwareParams hw;
  MeasuredParams mb;
  double c_iter = 0.0;  // Table 4 value for this stencil/device
  int radius = 1;       // dependence radius (1 for all paper stencils)
  RowSumMode row_sum = RowSumMode::kExactCeil;
  TileGeometryMode geometry = TileGeometryMode::kFamilyAveraged;
};

// Intermediate quantities, exposed for tests and the ablation bench.
struct TalgBreakdown {
  double nw = 0.0;       // number of wavefronts, Eqn 3 / 20
  double w = 0.0;        // tiles per wavefront, Eqn 5 / 22
  double w_tile = 0.0;   // tile width, Eqn 4 / 21
  double m_prime = 0.0;  // global<->shared transfer time, Eqn 8/14/25
  double c = 0.0;        // per-(sub)tile compute time, Eqn 9/15/27
  double t_tile = 0.0;   // T_tile / T_prism / T_slab (Eqns 10-12/16/28-29)
  std::int64_t n_subtiles = 1;  // sub-prisms / sub-slabs, Eqn 23
  std::int64_t k = 1;    // hyper-threading factor used
  double talg = 0.0;     // total, Eqn 6 / 17 / 30
};

// Shared-memory-derived bound on the hyper-threading factor k
// (Eqn 11 without the register term, which the model cannot know;
// also capped by MTB_SM and the 48 KB/block rule from Section 5.1).
std::int64_t k_max(int dim, const hhc::TileSizes& ts,
                   const HardwareParams& hw, std::int64_t radius = 1);

// True when a tile of this size can run at all (fits the per-block
// shared-memory limit).
bool tile_fits(int dim, const hhc::TileSizes& ts, const HardwareParams& hw,
               std::int64_t radius = 1);

// Predicted total execution time (seconds) for the given problem,
// tile sizes and hyper-threading factor k (>= 1). Dimension is taken
// from `p.dim`; 1D uses Section 4.1, 2D Section 4.2, 3D Section 4.3.
TalgBreakdown talg(const ModelInputs& in, const stencil::ProblemSize& p,
                   const hhc::TileSizes& ts, std::int64_t k);

// Same, choosing the k in [1, k_max] that minimizes the prediction.
// Eqn 11 only *bounds* k; the residency the scheduler actually
// achieves is whatever serves the workload best, so the optimistic
// model takes the minimum over the feasible range. The k-independent
// terms are computed once; only T_tile and the waves are redone per
// k. The result equals the first strictly best talg(in, p, ts, k)
// bit for bit.
TalgBreakdown talg_auto_k(const ModelInputs& in, const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts);

// An admissible floor on talg_auto_k(in, p, ts).talg for one
// problem, bit for bit: floor(ts) <= talg on every tile Eqn 31
// admits, +infinity on a tile it rejects (which a sweep prices at
// +infinity too), and a coarser floor over_run(ts) on all tiles of
// one (tT, tS1). A model sweep prices the exact Talg only where the
// floors do not already exceed its cut (tuner::Session::sweep_model).
//
// The floor relaxes each row-sum progression of Eqns 9/15/27 to one
// ceiling, ceil(inner * sum(x) / n_v) <= sum(ceil(x * inner / n_v)),
// so c shrinks; every other k-independent term is the exact one. It
// prices k = 1 through the model's own expressions (the same
// expression tree on smaller inputs, so <= holds by monotone
// rounding) and every k >= 2 at once through one closed form
// (talg.cpp derives it and its guard factor).
//
// The floor models RowSumMode::kExactCeil under either geometry, with
// non-negative finite measured parameters and C_iter. Any other input
// is not modeled: modeled() is false and every floor is 0. Holds
// pointers to `in` and `p`, which must outlive it.
class TalgFloor {
 public:
  // The terms that depend on the problem and (tT, tS1) only, kept
  // across calls on consecutive tiles that share them (a tile space
  // lists its tiles grouped by (tT, tS1)). One per thread, used with
  // one TalgFloor.
  struct Run {
    std::int64_t tT = -1, tS1 = -1;
    double nw = 0.0;
    std::int64_t waves_1 = 0;                // waves(1) = ceil(w / n_sm)
    std::int64_t x_sum = 0, x_sum_wide = 0;  // the progressions' sum(x)
  };

  TalgFloor(const ModelInputs& in, const stencil::ProblemSize& p);

  bool modeled() const noexcept { return modeled_; }
  double operator()(const hhc::TileSizes& ts, Run& run) const;
  // A floor on the floors of a whole (tT, tS1) run: <= operator()(t),
  // bit for bit, for every tile t with ts's tT and tS1, whatever its
  // other extents (they are ignored). One closed form per run, so a
  // sweep can rule out a run without visiting its tiles.
  //
  // Segments. The runs of one tT, in ascending tS1, split into
  // segments: the runs below the slope (tS1 < max(r, 1), run floor
  // +inf), then maximal stretches of equal waves(1) =
  // ceil(S1 / ((2 tS1 + r tT) n_SM)), which is non-increasing in tS1.
  // Within a segment over_run is non-decreasing in tS1, bit for bit:
  // Nw, the span D and q = max(2, waves(1)) are fixed there;
  // m = transfer_time(D) is affine in tS1 with non-negative
  // coefficients; the progressions' sum x has tT / 2 terms, each
  // increasing in tS1; and on the non-negative finite inputs
  // modeled() requires every operation rounds monotonically. So a
  // segment's first run holds its smallest run floor, and a walk up a
  // segment can stop at its first run above a bound.
  double over_run(const hhc::TileSizes& ts) const;
  // The smallest tS1 past the segment that holds ts's run: the
  // closed form of the first tS1 whose waves(1) is below ts's, or
  // INT64_MAX when the segment ends the tT column (an odd or small
  // tT, waves(1) <= 1, or inputs not modeled, whose floors are all 0).
  std::int64_t segment_end(const hhc::TileSizes& ts) const;

 private:
  const ModelInputs* in_;
  const stencil::ProblemSize* p_;
  bool modeled_;
};

}  // namespace repro::model
