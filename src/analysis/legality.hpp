// Static legality checking of tile/thread configurations — the single
// source of truth for the feasibility constraints of the optimization
// problem (Eqn 31) plus everything the deliberately optimistic model
// cannot complain about (register pressure, partial tiles, warp
// divergence). The tuner's enumerator and optimizer consult
// `eqn31_feasible`; the lint driver runs `check_tiling` to turn every
// violated constraint into a structured diagnostic instead of pricing
// an illegal configuration.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/diagnostics.hpp"
#include "hhc/tile_sizes.hpp"
#include "model/params.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"

namespace repro::analysis {

// The hard resource/shape constraints of Eqn 31, as a cheap predicate
// usable in enumeration inner loops (no allocation, no diagnostics):
//   * tT even and >= 2 (the HHC schedule needs two interlocked
//     hexagon families per time tile),
//   * every spatial extent used by `dim` >= 1,
//   * tS1 >= radius (the hexagon slope must contain the dependence
//     cone; narrower tiles have no legal wavefront schedule),
//   * M_tile <= per-block shared-memory limit (the 48 KB rule) and
//     M_tile <= M_SM (Eqn 11's k >= 1: the tile must fit one SM).
// Warp alignment of the inner extents is an *enumeration lattice*
// property (EnumOptions steps), not a hard feasibility bound, so it is
// diagnosed by check_tiling but not enforced here.
bool eqn31_feasible(int dim, const hhc::TileSizes& ts,
                    const model::HardwareParams& hw,
                    std::int64_t radius = 1) noexcept;

// The capacity half of eqn31_feasible alone: M_tile fits both the
// per-block limit and M_SM. M_tile is monotone non-decreasing in every
// tile coordinate, so once a point fails this check every point that
// is at least as large in each coordinate fails it too; the
// enumerator stops its loops there. (Shape and slope failures carry
// no such implication.)
bool eqn31_capacity_ok(int dim, const hhc::TileSizes& ts,
                       const model::HardwareParams& hw,
                       std::int64_t radius = 1) noexcept;

// Shared-memory-derived hyper-threading bound (Eqn 11 without the
// register term): how many tiles of this size fit one SM at once.
// Returns 0 when the tile does not fit at all.
std::int64_t hyperthreading_bound(int dim, const hhc::TileSizes& ts,
                                  const model::HardwareParams& hw,
                                  std::int64_t radius = 1) noexcept;

// Everything check_tiling may look at. `def` enables the
// register-pressure estimate; `thr` the thread-shape checks; `problem`
// the partial-tile/divergence warnings. All optional pieces degrade
// gracefully when absent.
struct TilingCheckInput {
  int dim = 2;
  std::int64_t radius = 1;
  hhc::TileSizes ts;
  model::HardwareParams hw;
  const stencil::StencilDef* def = nullptr;
  std::optional<hhc::ThreadConfig> thr;
  std::optional<stencil::ProblemSize> problem;
  std::int64_t warp = 32;  // lanes per warp (Eqn 31's alignment unit)
  // Kernel implementation variant; the default is variant-blind (no
  // SL314 can fire). Needs `def` and `thr` for the resource check.
  stencil::KernelVariant variant{};
};

// Statically verifies one (stencil, tile, threads, hardware) tuple and
// emits a diagnostic per violated constraint:
//   SL301 (error)   tT odd or < 2,
//   SL311 (error)   non-positive spatial extent,
//   SL302 (error)   tS1 < radius (slope vs dependence cone),
//   SL303 (error)   footprint over the per-block 48 KB rule,
//   SL304 (error)   footprint over M_SM entirely,
//   SL305 (error)   tS2 (2D) / tS3 (3D) not a warp multiple,
//   SL306 (warning) hyper-threading bound k < 2,
//   SL307 (warning) register estimate over the register file,
//   SL308 (warning) problem sizes leave partial tiles,
//   SL309 (error/warning) thread block too large / not warp-shaped,
//   SL314 (error)   variant unroll factor the codegen cannot emit,
//   SL314 (warning) variant register estimate over the register file
//                   while the default variant's estimate fits.
// Returns true iff no *error*-severity diagnostic was added by this
// call (warnings and notes do not fail the check).
bool check_tiling(const TilingCheckInput& in, DiagnosticEngine& diags);

}  // namespace repro::analysis
