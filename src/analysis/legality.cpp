#include "analysis/legality.hpp"

#include <algorithm>
#include <string>

#include "gpusim/registers.hpp"
#include "hhc/footprint.hpp"

namespace repro::analysis {

namespace {

// The individual hard constraints of Eqn 31. These are the *only*
// implementation of each rule: eqn31_feasible conjoins them and
// check_tiling maps each violation to a diagnostic, so the enumerator
// and the linter can never disagree.
bool time_tile_ok(const hhc::TileSizes& ts) noexcept {
  return ts.tT >= 2 && ts.tT % 2 == 0;
}

bool extents_ok(int dim, const hhc::TileSizes& ts) noexcept {
  return ts.tS1 >= 1 && (dim < 2 || ts.tS2 >= 1) && (dim < 3 || ts.tS3 >= 1);
}

bool slope_ok(const hhc::TileSizes& ts, std::int64_t radius) noexcept {
  return ts.tS1 >= std::max<std::int64_t>(radius, 1);
}

std::string kib(std::int64_t words) {
  const std::int64_t bytes = words * hhc::kWordBytes;
  return std::to_string(bytes / 1024) + "." +
         std::to_string((bytes % 1024) * 10 / 1024) + " KiB";
}

}  // namespace

bool eqn31_capacity_ok(int dim, const hhc::TileSizes& ts,
                       const model::HardwareParams& hw,
                       std::int64_t radius) noexcept {
  const std::int64_t m_tile = hhc::shared_words_per_tile(
      dim, ts, std::max<std::int64_t>(radius, 1));
  return m_tile <= hw.max_shared_words_per_block &&
         m_tile <= hw.shared_words_per_sm;
}

bool eqn31_feasible(int dim, const hhc::TileSizes& ts,
                    const model::HardwareParams& hw,
                    std::int64_t radius) noexcept {
  const std::int64_t r = std::max<std::int64_t>(radius, 1);
  return time_tile_ok(ts) && extents_ok(dim, ts) && slope_ok(ts, r) &&
         eqn31_capacity_ok(dim, ts, hw, r);
}

std::int64_t hyperthreading_bound(int dim, const hhc::TileSizes& ts,
                                  const model::HardwareParams& hw,
                                  std::int64_t radius) noexcept {
  const std::int64_t m_tile =
      hhc::shared_words_per_tile(dim, ts, std::max<std::int64_t>(radius, 1));
  if (m_tile > hw.max_shared_words_per_block || m_tile > hw.shared_words_per_sm)
    return 0;
  return std::min<std::int64_t>(hw.max_tb_per_sm,
                                hw.shared_words_per_sm / m_tile);
}

bool check_tiling(const TilingCheckInput& in, DiagnosticEngine& diags) {
  const std::size_t errors_before = diags.count(Severity::kError);
  const std::int64_t r = std::max<std::int64_t>(in.radius, 1);
  const hhc::TileSizes& ts = in.ts;

  if (!time_tile_ok(ts)) {
    diags.error(Code::kTileTimeOdd,
                "tT=" + std::to_string(ts.tT) +
                    " is not an even value >= 2; the hexagonal schedule "
                    "interlocks two tile families per time tile");
  }
  if (!extents_ok(in.dim, ts)) {
    diags.error(Code::kTileExtent,
                "spatial tile extents must be >= 1, got " + ts.to_string());
  }
  if (extents_ok(in.dim, ts) && !slope_ok(ts, r)) {
    diags.error(Code::kTileSlope,
                "tS1=" + std::to_string(ts.tS1) +
                    " is narrower than the dependence radius r=" +
                    std::to_string(r) +
                    "; the hexagon slopes cannot contain the dependence "
                    "cone, so no legal wavefront schedule exists");
  }
  if (!stencil::valid_unroll(in.variant.unroll)) {
    diags.error(Code::kVariantResource,
                "kernel variant unroll factor " +
                    std::to_string(in.variant.unroll) +
                    " is not one the generator emits (1, 2 or 4)");
  }

  // Footprint checks need a geometrically meaningful tile.
  if (time_tile_ok(ts) && extents_ok(in.dim, ts)) {
    const std::int64_t m_tile = hhc::shared_words_per_tile(in.dim, ts, r);
    if (m_tile > in.hw.max_shared_words_per_block) {
      diags.error(Code::kTileBlockLimit,
                  "tile footprint " + kib(m_tile) +
                      " exceeds the per-block shared-memory limit of " +
                      kib(in.hw.max_shared_words_per_block) +
                      " (the 48 KB rule of Section 5.1)");
    }
    if (m_tile > in.hw.shared_words_per_sm) {
      diags.error(Code::kTileSmCapacity,
                  "tile footprint " + kib(m_tile) + " exceeds M_SM = " +
                      kib(in.hw.shared_words_per_sm) + " entirely");
    }
    const std::int64_t k = hyperthreading_bound(in.dim, ts, in.hw, r);
    if (k == 1) {
      diags.warn(Code::kTileLowOccupancy,
                 "footprint " + kib(m_tile) +
                     " allows only k=1 resident tile per SM; the paper's "
                     "best configurations hyper-thread with k >= 2");
    }
  }

  // Warp alignment of the innermost *streamed* extent (tS2 in 2D, tS3
  // in 3D; Eqn 31's "multiples of 32" constraint). 1D has no inner
  // spatial extent, so nothing to align.
  if (in.dim == 2 && ts.tS2 % in.warp != 0) {
    diags.error(Code::kTileWarpAlign,
                "tS2=" + std::to_string(ts.tS2) +
                    " is not a multiple of the warp width " +
                    std::to_string(in.warp) +
                    "; generated code would issue partial warps on every "
                    "row of every tile");
  }
  if (in.dim == 3 && ts.tS3 % in.warp != 0) {
    diags.error(Code::kTileWarpAlign,
                "tS3=" + std::to_string(ts.tS3) +
                    " is not a multiple of the warp width " +
                    std::to_string(in.warp) +
                    "; generated code would issue partial warps on every "
                    "pencil of every tile");
  }

  if (in.thr) {
    const hhc::ThreadConfig& thr = *in.thr;
    const int total = thr.total();
    if (thr.n1 < 1 || thr.n2 < 1 || thr.n3 < 1) {
      diags.error(Code::kThreadConfig,
                  "thread counts must be positive, got " +
                      std::to_string(thr.n1) + "x" + std::to_string(thr.n2) +
                      "x" + std::to_string(thr.n3));
    } else {
      if (total > 1024) {
        diags.error(Code::kThreadConfig,
                    "thread block has " + std::to_string(total) +
                        " threads; the hardware limit is 1024");
      }
      if (thr.n1 % in.warp != 0) {
        diags.warn(Code::kThreadConfig,
                   "n1=" + std::to_string(thr.n1) +
                       " is not a warp multiple; loads along s1 will not "
                       "coalesce and edge warps diverge");
      }
      // Register pressure: the piece of reality the optimistic model
      // never sees (Sections 6.1 and 7). Only an estimate — nvcc has
      // the last word — hence a warning, not an error.
      if (in.def != nullptr && total >= 1 && total <= 1024) {
        const int regs =
            gpusim::estimate_regs_per_thread(*in.def, ts, total);
        const std::int64_t demand =
            static_cast<std::int64_t>(regs) * total;
        if (demand > in.hw.regs_per_sm) {
          diags.warn(Code::kTileRegisterPressure,
                     "estimated register demand " + std::to_string(demand) +
                         " (" + std::to_string(regs) + "/thread x " +
                         std::to_string(total) +
                         " threads) exceeds the register file of " +
                         std::to_string(in.hw.regs_per_sm) +
                         "; expect spills the analytical model cannot "
                         "predict");
        } else if (!in.variant.is_default() &&
                   stencil::valid_unroll(in.variant.unroll)) {
          // SL314 fires only for overflow the *variant* introduces:
          // the default variant's demand fits (checked above), the
          // variant's does not. A base overflow already carries SL307
          // and would only be restated here.
          const int vregs = gpusim::estimate_regs_per_thread(
              *in.def, ts, total, in.variant);
          const std::int64_t vdemand =
              static_cast<std::int64_t>(vregs) * total;
          if (vdemand > in.hw.regs_per_sm) {
            diags.warn(Code::kVariantResource,
                       "kernel variant " + in.variant.to_string() +
                           " raises the register estimate to " +
                           std::to_string(vregs) + "/thread (" +
                           std::to_string(vdemand) + " total, over the " +
                           std::to_string(in.hw.regs_per_sm) +
                           "-register file); the default variant fits — "
                           "expect spills only for this variant");
          }
        }
      }
    }
  }

  if (in.problem) {
    const stencil::ProblemSize& p = *in.problem;
    // Horizontal pitch of the two interlocked hexagon families
    // (Eqn 5's denominator): tiles repeat every 2*tS1 + r*tT columns.
    const std::int64_t pitch = hhc::tile_pitch(ts, r);
    if (pitch > 0 && p.S[0] % pitch != 0) {
      diags.warn(Code::kTilePartial,
                 "S1=" + std::to_string(p.S[0]) +
                     " is not a multiple of the tile pitch " +
                     std::to_string(pitch) +
                     " (2*tS1 + r*tT); boundary tiles are clipped and "
                     "their warps partially diverge");
    }
    if (p.dim >= 2 && ts.tS2 > 0 && p.S[1] % ts.tS2 != 0) {
      diags.warn(Code::kTilePartial,
                 "S2=" + std::to_string(p.S[1]) +
                     " is not a multiple of tS2=" + std::to_string(ts.tS2) +
                     "; the last prism row in s2 is partial");
    }
    if (p.dim >= 3 && ts.tS3 > 0 && p.S[2] % ts.tS3 != 0) {
      diags.warn(Code::kTilePartial,
                 "S3=" + std::to_string(p.S[2]) +
                     " is not a multiple of tS3=" + std::to_string(ts.tS3) +
                     "; the last slab in s3 is partial");
    }
    if (ts.tT > 0 && p.T % ts.tT != 0) {
      diags.note(Code::kTilePartial,
                 "T=" + std::to_string(p.T) +
                     " is not a multiple of tT=" + std::to_string(ts.tT) +
                     "; the final wavefront rows are clipped in time");
    }
  }

  return diags.count(Severity::kError) == errors_before;
}

}  // namespace repro::analysis
