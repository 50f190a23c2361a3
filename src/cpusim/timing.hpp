// The CPU timing simulator: prices a full hexagonally-tiled sweep on a
// cache-hierarchy CPU descriptor.
//
// Mirror of gpusim/timing.hpp for the second backend. The sweep is
// decomposed exactly as the analytical model assumes (Eqns 17/30 at
// k = 1): each wavefront row holds w hexagons, distributed over the
// cores in ceil(w / cores) rounds; a core walks its hexagon's n_sub
// sub-prisms/slabs serially. The staggered tiling interlocks two
// hexagon families (base widths tS1 and tS1 + 2r), so every per-tile
// quantity is the mean of the two — the same geometry the model's
// kFamilyAveraged mode prices.
//
// Per sub-tile the simulator charges
//   * a DRAM fill/writeback: the cold read+write streams at aggregate
//     burst bandwidth form an un-hidable HEAD; the rest of the traffic
//     (write-allocate read-for-ownership, contention beyond the burst
//     rate when all cores stream at once, line-granularity rounding)
//     overlaps with compute behind the hardware prefetchers and only
//     shows when it exceeds the compute+service time,
//   * per-time-step service from the smallest cache level whose
//     per-core share holds the tile's working set — or, when no level
//     fits, a per-step re-stream of the whole footprint from DRAM
//     (the working-set cliff the optimistic model never sees),
//   * vectorized compute with SIMD-remainder and strand-chunking
//     ceilings, under-threaded issue stalls and over-subscription
//     penalties,
//   * tT step fences plus the two copy-in/copy-out barriers (the
//     model's 2 tau_sync of Eqn 8), and a per-row parallel-region
//     launch.
// Every model term is dominated by a simulator term, so the model is
// optimistic pointwise; the simulator-only terms (RFO, contention,
// cache service, stalls, rounding) supply the error the model ignores.
// A deterministic multiplicative jitter in [1, 1 + amplitude) models
// run-to-run noise; measure_best_of takes the min over `runs` draws,
// so the jitter-free base time is a true lower envelope.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cpusim/device.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"

namespace repro::cpusim {

struct SimResult {
  bool feasible = false;
  std::string infeasible_reason;
  double seconds = 0.0;
  double gflops = 0.0;

  // Component totals (jitter-free, aggregated over the sweep, BEFORE
  // the prefetch overlap is applied — `seconds` is not their sum).
  int fit_level = -1;  // index into CpuParams::levels; -1 = DRAM
  double fill_seconds = 0.0;     // DRAM fill + writeback (head + rest)
  double service_seconds = 0.0;  // per-step cache/DRAM working-set service
  double compute_seconds = 0.0;
  double fence_seconds = 0.0;
  double launch_seconds = 0.0;
  std::int64_t wavefronts = 0;
  std::int64_t tiles_per_row = 0;
};

// The tile/schedule accounting behind every price and every lower
// bound (cpusim/lower_bound.hpp): each ceiling and penalty the
// simulator charges is derived from these quantities. *_avg fields
// are the mean of the two interlocked hexagon families; the plain
// fields describe the narrow (base-width tS1) family, whose
// quantities never exceed the mean.
//
// Pricing is two-stage, like gpusim's: TileGeometry is everything the
// strand count does not touch, computed once per tile by analyze_tile;
// StrandStep is the per-strand step (the [1, 1024] range check and
// the chunked SIMD group count), so a thread sweep over one tile
// repeats only that step and never copies the tile.
struct TileGeometry {
  bool feasible = false;
  std::string infeasible_reason;
  std::int64_t radius = 0;    // dependence slope, max(def.radius, 1)
  std::int64_t inner = 0;     // points per s1 column: tS2 (2D), tS2*tS3 (3D)
  std::int64_t w = 0;         // hexagons per wavefront row along s1
  std::int64_t n_sub = 0;     // sub-prisms/slabs per hexagon (serial)
  std::int64_t tasks_row = 0; // w * n_sub (total sub-tiles per row)
  std::int64_t rounds = 0;    // ceil(w / cores): hexagon rounds per row
  int active_cores = 0;       // min(cores, w)
  std::int64_t wavefronts = 0;
  std::int64_t volume = 0;    // iteration points per sub-tile (narrow)
  double volume_avg = 0.0;    // family-averaged iteration points
  std::int64_t footprint_bytes = 0;  // narrow family (= model's Eqn 31)
  std::int64_t io_words = 0;  // one-directional words per sub-tile (narrow)
  double io_words_avg = 0.0;  // family-averaged; == model m_io / 2
  int fit_level = -1;         // smallest level whose share fits; -1 = DRAM
  double line_waste = 1.0;    // >= 1: line-granularity inflation
  double cyc_group = 0.0;     // cycles per SIMD group of n_v points
};

// What one strand count adds to an analyzed tile.
struct StrandStep {
  bool feasible = false;      // the tile is, and strands in [1, 1024]
  int strands = 0;            // thr.total()
  double groups_avg = 0.0;    // family-averaged SIMD groups per sub-tile
};

// Both stages of one point, flattened (diagnostics and tests).
struct SweepGeometry : TileGeometry {
  int strands = 0;
  double groups_avg = 0.0;
};

// Stage one: the strand-invariant accounting of one tile.
TileGeometry analyze_tile(const CpuParams& dev, const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts);

// Whether thr.total() lies in the simulator's strand range [1, 1024].
bool strands_in_range(const hhc::ThreadConfig& thr) noexcept;

// SIMD groups one core issues for one sub-tile of the hexagon family
// with base width `base` (tS1, or tS1 + 2r for the wide family): per
// hexagon time step j < tT/2, the row of (base + 2rj) * inner points
// splits into min(strands, points) chunks, each padded to whole
// vector groups of n_v, and each width occurs on the grow and the
// shrink half. Both ceilings are remainder waste the optimistic model
// relaxes away: its Eqn 9/15/27 row sum keeps only the
// ceil(x * inner / n_v) floor each row term here dominates. Closed
// form, O(log): rows with fewer points than strands cost 2 * points
// (an arithmetic sum), every other row 2s * ceil(points / (s * n_v))
// (one sum_ceil_div). radius, inner, strands and n_v are >= 1.
std::int64_t family_groups(std::int64_t base, std::int64_t tT,
                           std::int64_t inner, std::int64_t radius,
                           int strands, int n_v);

// Stage two: one strand count on an analyzed tile. Infeasible when the
// tile is or when the strand count is out of range.
StrandStep analyze_strands(const TileGeometry& tile, const CpuParams& dev,
                           const hhc::TileSizes& ts,
                           const hhc::ThreadConfig& thr);

// Both stages for one point.
SweepGeometry analyze_sweep(const CpuParams& dev,
                            const stencil::StencilDef& def,
                            const stencil::ProblemSize& p,
                            const hhc::TileSizes& ts,
                            const hhc::ThreadConfig& thr);

// The jitter-free simulation of strand config `thr` on an analyzed
// tile: every component and `seconds` before the run-to-run jitter
// factor (gflops stays 0). simulate_time, measure_best_of and the
// batch multiply its `seconds` by their smallest jitter draw, which is
// >= 1 whenever jitter_amplitude >= 0, so this is the exact floor
// cpusim/lower_bound.hpp prunes on.
SimResult simulate_jitter_free(const CpuParams& dev, const TileGeometry& tile,
                               const hhc::TileSizes& ts,
                               const hhc::ThreadConfig& thr);

// The smallest simulate_jitter_free(...).seconds over `thrs`, bit for
// bit; +infinity when none is feasible. The strand count reaches a
// price only through the per-sub-tile compute time, and the price is
// non-decreasing in it, so the pricing body runs once, at the
// smallest compute term. The compute term at the one-strand group
// count is a floor of every strand count's (family_groups never falls
// below its one-strand value, and the other factors are >= 0), so the
// strand count with the smallest floor is stepped exactly first and
// any other only while its floor is below the running minimum.
double min_jitter_free(const CpuParams& dev, const TileGeometry& tile,
                       const hhc::TileSizes& ts,
                       std::span<const hhc::ThreadConfig> thrs);

SimResult simulate_time(const CpuParams& dev, const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr,
                        std::uint64_t run_id = 0);

// Best (minimum) of `runs` jittered simulations — the measurement
// protocol the paper uses on the real machines.
SimResult measure_best_of(const CpuParams& dev, const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts,
                          const hhc::ThreadConfig& thr, int runs = 5);

// Batched measurement: every strand config in `thrs` on one tile. The
// tile is analyzed and its jitter-key prefix hashed once; each config
// then pays only the per-strand step and the pricing body. out[j] is
// bit-identical to measure_best_of(dev, def, p, ts, thrs[j], runs):
// simulate_time, measure_best_of and this batch share one pricing
// body. `out` must hold thrs.size() entries.
void measure_best_of_batch(const CpuParams& dev,
                           const stencil::StencilDef& def,
                           const stencil::ProblemSize& p,
                           const hhc::TileSizes& ts,
                           std::span<const hhc::ThreadConfig> thrs,
                           std::span<SimResult> out, int runs = 5);

// Compute-only time of the whole sweep on ONE core with no memory
// system, no penalties and no overheads: the C_iter micro-benchmark
// kernel (cpusim/microbench.hpp) inverts the model's compute equation
// on this.
double simulate_compute_only(const CpuParams& dev,
                             const stencil::StencilDef& def,
                             const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::ThreadConfig& thr);

}  // namespace repro::cpusim
