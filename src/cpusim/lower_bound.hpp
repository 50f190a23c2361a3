// Admissible lower bound on the CPU simulator's execution time.
//
// Mirrors gpusim/lower_bound.hpp for the second backend. The floor is
// built from the same TileGeometry the simulator prices, relaxing
// every term the simulator can only inflate:
//
//   * compute floor: total iteration points over the SIMD width with
//     no strand-chunking or remainder ceilings (groups >= volume/n_v
//     per tile) and no stall / over-subscription penalties (both
//     factors are >= 1 by construction) — so the floor never reads
//     the strand count and one value serves a whole thread sweep;
//   * memory floor: the one-directional DRAM traffic with line waste
//     relaxed to 1 and without the write-allocate doubling, over the
//     same per-core bandwidth share, plus the exact per-tile DRAM
//     latency; the per-step service term is dropped entirely (it is
//     >= 0);
//   * overhead floor: the exact per-step fence and per-row
//     parallel-launch totals (the simulator charges both verbatim).
//
// The simulator's t_tile is the plain sum fill + service + compute +
// fence, each term >= its floor counterpart, and the jitter factor of
// measure_best_of never drops below 1, so
//   lower_bound <= simulate_time <= measure_best_of
// for every run_id. The cpusim-tier property tests assert this over
// the parity grid; tuner::Session prunes on it exactly as it does
// with the GPU bound.
#pragma once

#include "cpusim/device.hpp"
#include "cpusim/timing.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"

namespace repro::cpusim {

struct LowerBound {
  bool feasible = false;
  // The admissible floor; +infinity for an infeasible configuration.
  double seconds = 0.0;

  // Diagnostic decomposition (these sum to `seconds`).
  double compute_floor = 0.0;
  double memory_floor = 0.0;
  double overhead_floor = 0.0;  // fences + parallel-region launches
};

// The bound of every in-range strand count on tile `ts`.
LowerBound lower_bound(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts);

// One point: the tile's bound, or infeasible (+infinity) when
// thr.total() is outside the simulator's strand range.
LowerBound lower_bound(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr);

}  // namespace repro::cpusim
