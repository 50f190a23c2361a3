// Admissible lower bound on simulated execution time.
//
// The tuner's exhaustive and within-10% passes measure thousands of
// (tile, thread) points even though most are provably worse than the
// current best. `lower_bound` computes a floor of `simulate_time` —
// and therefore of `measure_best_of`, whose jitter factor never drops
// below 1 — from the same thread-invariant `TileCostProfile` the
// simulator prices, in O(classes) with no per-bin work — it reads
// only each class's bound aggregates, so a bounds-only profile
// (TileCostProfile::build_bounds) is enough:
//
//   * compute floor: per class, ceil(total_points / d) issue units
//     with d = min(threads_rounded, n_v) — every bin pays at least
//     points / threads_rounded serial rounds and points / n_v lane
//     waves — at the resolved per-iteration cycle cost, plus the
//     exact barrier count, times ceil(blocks / n_SM) compute rounds;
//   * bandwidth floor: the class's exact coalescing-derated traffic
//     over aggregate DRAM bandwidth plus one transfer latency per
//     residency round (this equals the simulator's acc.mem term);
//   * overhead floor: the exact kernel-launch total (one per
//     wavefront row, empty rows included) and the exact per-round
//     block-dispatch cost.
//
// Per kernel the simulator's wall time satisfies
//   acc.time >= max(acc.mem, acc.comp) + acc.sched
// in both the k = 1 (serialized) and k >= 2 (overlapped) branches of
// price_wavefront, so summing max(memory, compute) + overhead floors
// over classes is admissible: lower_bound <= simulate_time for every
// run_id, bit for bit. The gpusim-tier property tests assert this
// over the parity suite's 1D/2D/3D/clipped/spill cases and a
// randomized feasible grid; the tuner prunes on it (session.hpp).
#pragma once

#include <span>

#include "gpusim/device.hpp"
#include "gpusim/timing.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"

namespace repro::gpusim {

class TileCostProfile;  // gpusim/cost_profile.hpp

struct LowerBound {
  // Mirrors SimResult::feasible (resolve_config + valid geometry).
  bool feasible = false;
  // The admissible floor; +infinity for an infeasible configuration
  // (it can never become the incumbent, so any incumbent prunes it).
  double seconds = 0.0;

  // Diagnostic decomposition (each already summed over kernels;
  // compute/memory enter `seconds` through a per-class max, so they
  // do not sum to it).
  double compute_floor = 0.0;
  double memory_floor = 0.0;
  double overhead_floor = 0.0;  // launches + block dispatch
};

// Floor for one configuration, pricing against a prebuilt profile
// for the same (p, ts, def.radius). The bound is variant-aware and
// stays admissible per variant: both the floor and simulate_time
// derive their cycle cost and coalescing from the same
// resolve_config(..., var).
LowerBound lower_bound(const DeviceParams& dev,
                       const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr,
                       const TileCostProfile& profile,
                       const stencil::KernelVariant& var = {});

// Convenience overload: builds a bounds-only profile via
// TileCostProfile::build_bounds (no histograms). Prefer the profile
// form in sweeps — the tuner's per-tile records make the profile
// build free across thread configs.
LowerBound lower_bound(const DeviceParams& dev,
                       const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr,
                       const stencil::KernelVariant& var = {});

// One floor for a whole tile, over its (thread, variant) axes:
// <= lower_bound(dev, def, p, ts, thr, profile, var) bit for bit for
// every thr in `thrs` and var in `vars` (an empty `vars` means the
// default variant). It resolves each pair once, keeps the smallest
// cyc_iter, the largest issue denominator min(threads_r, n_v), the
// largest residency k and the largest coalesce_eff over the pairs
// that resolve, then walks the classes once: per class, the larger
// of the compute floor at that cycle cost and denominator and the
// memory floor at that k and coalescing, plus the exact launch and
// dispatch terms. Each of those extremes can only lower the per-point
// expression it replaces, and every operation of that expression is
// monotone under IEEE rounding, so the floor is admissible as
// computed, not only in exact arithmetic. Infeasible (+infinity) when
// no pair resolves or the profile is invalid. A bounds-only profile
// serves.
LowerBound tile_floor(const DeviceParams& dev, const stencil::StencilDef& def,
                      const stencil::ProblemSize& p, const hhc::TileSizes& ts,
                      std::span<const hhc::ThreadConfig> thrs,
                      std::span<const stencil::KernelVariant> vars,
                      const TileCostProfile& profile);

}  // namespace repro::gpusim
