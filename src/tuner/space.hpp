// The feasible tile-size space of the optimization problem (Eqn 31)
// and the tile-size sets used by the experiments of Sections 5 and 6:
// the HHC compiler default, the paper's baseline set (max-footprint +
// hyperthreading variants), and exhaustive enumeration.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/ranges.hpp"
#include "device/descriptor.hpp"
#include "hhc/tile_sizes.hpp"
#include "model/params.hpp"
#include "stencil/variant.hpp"

namespace repro::tuner {

// Bounds and granularity of the enumeration. Defaults mirror the
// paper's constraints: tT even, tS2 a multiple of 32 (full warps);
// for 3D the innermost tS3 carries the warp constraint instead.
struct EnumOptions {
  std::int64_t tT_max = 64;
  std::int64_t tS1_max = 96;
  std::int64_t tS2_max = 512;
  std::int64_t tS2_step = 32;
  std::int64_t tS3_max = 96;
  std::int64_t tS3_step = 32;
  // Coarser stepping for quick runs (keeps shape, shrinks count).
  std::int64_t tT_step = 2;
  std::int64_t tS1_step = 1;

  // Kernel implementation variants to search per (tile, thread)
  // point. Empty (the default) means the default variant only —
  // byte-identical to the pre-variant search; pass
  // stencil::all_kernel_variants() for the full axis. CPU sessions
  // ignore the axis (variants are a GPU codegen concept).
  std::vector<stencil::KernelVariant> variants;

  // Builder-style setters, so callers can configure inline:
  //   enumerate_feasible(2, hw, EnumOptions{}.with_tT_max(24).with_tS1_step(4))
  EnumOptions& with_tT_max(std::int64_t v) noexcept { tT_max = v; return *this; }
  EnumOptions& with_tT_step(std::int64_t v) noexcept { tT_step = v; return *this; }
  EnumOptions& with_tS1_max(std::int64_t v) noexcept { tS1_max = v; return *this; }
  EnumOptions& with_tS1_step(std::int64_t v) noexcept { tS1_step = v; return *this; }
  EnumOptions& with_tS2_max(std::int64_t v) noexcept { tS2_max = v; return *this; }
  EnumOptions& with_tS2_step(std::int64_t v) noexcept { tS2_step = v; return *this; }
  EnumOptions& with_tS3_max(std::int64_t v) noexcept { tS3_max = v; return *this; }
  EnumOptions& with_tS3_step(std::int64_t v) noexcept { tS3_step = v; return *this; }
  EnumOptions& with_variants(std::vector<stencil::KernelVariant> v) {
    variants = std::move(v);
    return *this;
  }

  // Collect every problem with these options into `eng` as SLxxx
  // diagnostics: SL310 for steps that can never advance the
  // enumeration (previously an infinite-loop hazard), SL312 for
  // bounds that can never admit a single lattice point or a variant
  // whose unroll factor the codegen cannot produce.
  void validate(analysis::DiagnosticEngine& eng) const;

  // Throwing form: std::invalid_argument carrying the first error's
  // "[SLxxx] ..." message. Called by every entry point that walks the
  // lattice.
  void validate() const;
};

// The enumeration lattice these options describe, in the analysis
// subsystem's own vocabulary (analysis cannot depend on tuner, so the
// audit pass certifies over a SweepGrid mirror; a parity test pins
// default == default).
analysis::SweepGrid to_sweep_grid(const EnumOptions& opt) noexcept;

// All tile sizes satisfying Eqn 31's resource constraints:
//   M_tile <= M_SM / threadblock-limit (48 KB rule),
//   tT even, tS1 integer, tS2 (2D) / tS3 (3D) multiples of 32.
std::vector<hhc::TileSizes> enumerate_feasible(
    int dim, const model::HardwareParams& hw, const EnumOptions& opt = {},
    std::int64_t radius = 1);

// Section 5.1's baseline experiment set: tile sizes that (nearly)
// maximize the shared-memory footprint at each hyperthreading target
// k in {2, 4, 8, 16} (the 48 KB per-block rule already forces k >= 2).
// Returns at most `max_count` combinations (the paper used 85).
std::vector<hhc::TileSizes> baseline_tile_set(
    int dim, const model::HardwareParams& hw, std::size_t max_count = 85,
    const EnumOptions& opt = {}, std::int64_t radius = 1);

// The same set drawn from an already enumerated space: equal to the
// form above when `space` is enumerate_feasible(dim, hw, opt, radius).
std::vector<hhc::TileSizes> baseline_tile_set(
    int dim, std::span<const hhc::TileSizes> space,
    const model::HardwareParams& hw, std::size_t max_count = 85,
    std::int64_t radius = 1);

// Untuned defaults comparable to what PPCG/HHC picks without tuning.
hhc::TileSizes hhc_default_tiles(int dim);

// The ten thread-count configurations explored per tile size
// (Section 5.1: "for each of them, we explore 10 different values of
// n_thr,i").
std::vector<hhc::ThreadConfig> default_thread_configs(int dim);

// Backend-aware form: GPU descriptors get exactly
// default_thread_configs(dim) (byte-compatibility with every GPU
// sweep); CPU descriptors get ten per-tile strand counts spanning
// below-SMT through oversubscribed (n1 only — a CPU "block" is a flat
// worker team, not a 3D lattice).
std::vector<hhc::ThreadConfig> device_thread_configs(
    const device::Descriptor& dev, int dim);

}  // namespace repro::tuner
