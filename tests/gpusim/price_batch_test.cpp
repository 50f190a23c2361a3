// Stage-two pricing checks: the unit fold against plain integer
// division (its power-of-two shift path included), the default
// kernel variant as the identity transform, unrolled cycle costs,
// the per-variant admissibility of the pruning lower bound, and the
// incremental profile rebuild (build_step) against a scratch build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/lower_bound.hpp"
#include "gpusim/timing.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"

namespace repro::gpusim {
namespace {

using stencil::get_stencil;
using stencil::KernelVariant;
using stencil::ProblemSize;
using stencil::StencilDef;
using stencil::StencilKind;

struct BatchCase {
  std::string name;
  StencilKind kind;
  ProblemSize p;
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
};

// Every field of both SimResults, no tolerance anywhere.
void expect_sim_equal(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.infeasible_reason, b.infeasible_reason) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.gflops, b.gflops) << what;
  EXPECT_EQ(a.k, b.k) << what;
  EXPECT_EQ(a.regs_per_thread, b.regs_per_thread) << what;
  EXPECT_EQ(a.spills, b.spills) << what;
  EXPECT_EQ(a.mem_seconds, b.mem_seconds) << what;
  EXPECT_EQ(a.compute_seconds, b.compute_seconds) << what;
  EXPECT_EQ(a.launch_seconds, b.launch_seconds) << what;
  EXPECT_EQ(a.sched_seconds, b.sched_seconds) << what;
  EXPECT_EQ(a.kernel_calls, b.kernel_calls) << what;
}

// The same shape mix the profile parity suite exercises: clipped
// boundaries, radius 2, spills, low occupancy.
std::vector<BatchCase> batch_cases() {
  return {
      {"1d_clipped", StencilKind::kJacobi1D,
       {.dim = 1, .S = {10000, 0, 0}, .T = 500},
       {.tT = 6, .tS1 = 48, .tS2 = 1, .tS3 = 1},
       {.n1 = 128, .n2 = 1, .n3 = 1}},
      {"1d_radius2", StencilKind::kGauss1D,
       {.dim = 1, .S = {8192, 0, 0}, .T = 256},
       {.tT = 4, .tS1 = 64, .tS2 = 1, .tS3 = 1},
       {.n1 = 64, .n2 = 1, .n3 = 1}},
      {"2d_interior", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 256},
       {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1},
       {.n1 = 32, .n2 = 8, .n3 = 1}},
      {"2d_clipped", StencilKind::kGradient2D,
       {.dim = 2, .S = {1000, 1000, 0}, .T = 100},
       {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      {"2d_radius2", StencilKind::kWideStar2D,
       {.dim = 2, .S = {512, 512, 0}, .T = 64},
       {.tT = 4, .tS1 = 16, .tS2 = 32, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      {"2d_spill", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 128},
       {.tT = 8, .tS1 = 32, .tS2 = 128, .tS3 = 1},
       {.n1 = 32, .n2 = 1, .n3 = 1}},
      {"2d_low_occupancy", StencilKind::kJacobi2D,
       {.dim = 2, .S = {2048, 2048, 0}, .T = 64},
       {.tT = 2, .tS1 = 10, .tS2 = 250, .tS3 = 1},
       {.n1 = 32, .n2 = 16, .n3 = 1}},
      {"3d_interior", StencilKind::kHeat3D,
       {.dim = 3, .S = {256, 256, 256}, .T = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 16, .tS3 = 32},
       {.n1 = 32, .n2 = 4, .n3 = 2}},
      {"3d_clipped", StencilKind::kJacobi3D,
       {.dim = 3, .S = {100, 100, 100}, .T = 30},
       {.tT = 4, .tS1 = 12, .tS2 = 24, .tS3 = 24},
       {.n1 = 32, .n2 = 2, .n3 = 2}},
  };
}

// The unit count of one block written out with plain divisions:
// per bin, ceil(points / threads_r) iterations per thread times
// ceil(active / n_v) lane waves, with threads_r and active rounded up
// to the warp.
std::int64_t plain_iter_units(const BlockGeometry& g, int threads, int n_v) {
  const std::int64_t threads_r = round_up<std::int64_t>(threads, 32);
  std::int64_t units = 0;
  for (const PointBin& b : g.bins) {
    const std::int64_t active =
        round_up<std::int64_t>(std::min(b.points, threads_r), 32);
    units += b.weight * ceil_div(b.points, threads_r) *
             ceil_div<std::int64_t>(active, n_v);
  }
  return units;
}

// geometry_iter_units against the plain divisions, on seeded bins from
// below the warp size to 2^40 points and on every edge around the
// thread counts. 32, 99 (rounds to 128) and 1024 take the shift path
// with n_v 1, 32 and 128; 96, 160 and n_v 48 take the division path.
TEST(PriceBatch, GeometryIterUnitsMatchesPlainDivision) {
  std::vector<BlockGeometry> geoms;
  BlockGeometry edges;
  for (const std::int64_t t : {32, 96, 128, 160, 1024}) {
    for (const std::int64_t d : {-1, 0, 1}) edges.bins.push_back({t + d, 3});
  }
  edges.bins.push_back({1, 1});
  edges.bins.push_back({std::int64_t{1} << 40, 1});
  geoms.push_back(edges);
  // Point ranges: below the warp, below threads_r, a few rows of
  // threads, and far beyond them, up to 2^40.
  constexpr std::int64_t hi[] = {31, 1023, 1 << 20, std::int64_t{1} << 40};
  Rng rng(0x5EEDF01DB1A5ULL);
  for (int i = 0; i < 200; ++i) {
    BlockGeometry g;
    const std::int64_t n = rng.uniform_int(1, 64);
    for (std::int64_t b = 0; b < n; ++b) {
      g.bins.push_back({rng.uniform_int(1, hi[rng.next_below(4)]),
                        rng.uniform_int(1, 1024)});
    }
    geoms.push_back(std::move(g));
  }
  for (const int threads : {32, 96, 99, 160, 1024}) {
    for (const int n_v : {1, 32, 48, 128}) {
      for (std::size_t i = 0; i < geoms.size(); ++i) {
        ASSERT_EQ(geometry_iter_units(geoms[i], threads, n_v),
                  plain_iter_units(geoms[i], threads, n_v))
            << "geometry " << i << " threads " << threads << " n_v " << n_v;
      }
    }
  }
}

// The default variant is the identity transform: pricing through the
// variant-aware overloads with a default-constructed KernelVariant
// reproduces the pre-variant result bit for bit.
TEST(PriceBatch, DefaultVariantIsIdentity) {
  const DeviceParams dev = gtx980();
  for (const BatchCase& c : batch_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const SimResult legacy = measure_best_of(dev, def, c.p, c.ts, c.thr);
    const SimResult via_variant =
        measure_best_of(dev, def, c.p, c.ts, c.thr, 5, KernelVariant{});
    expect_sim_equal(via_variant, legacy, c.name);
    EXPECT_EQ(iteration_cycles(dev, def, c.ts),
              iteration_cycles(dev, def, c.ts, KernelVariant{}))
        << c.name;
  }
}

// Non-default variants actually move the numbers (otherwise the
// search axis would be six spellings of one point): unrolling must
// change the per-iteration cycle cost on every case.
TEST(PriceBatch, UnrollChangesIterationCycles) {
  const DeviceParams dev = gtx980();
  for (const BatchCase& c : batch_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const double base = iteration_cycles(dev, def, c.ts);
    const double u2 = iteration_cycles(
        dev, def, c.ts, KernelVariant{.unroll = 2});
    const double u4 = iteration_cycles(
        dev, def, c.ts, KernelVariant{.unroll = 4});
    EXPECT_LT(u2, base) << c.name;
    EXPECT_LT(u4, u2) << c.name;
  }
}

// The pruning bound stays admissible on every variant: the floor can
// never exceed the measured minimum it prunes against.
TEST(PriceBatch, LowerBoundAdmissiblePerVariant) {
  const DeviceParams dev = gtx980();
  for (const BatchCase& c : batch_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile prof =
        TileCostProfile::build(c.p, c.ts, def.radius);
    ASSERT_TRUE(prof.valid()) << c.name;
    for (const KernelVariant& var : stencil::all_kernel_variants()) {
      const LowerBound lb =
          lower_bound(dev, def, c.p, c.ts, c.thr, prof, var);
      const SimResult measured =
          measure_best_of(dev, def, c.p, c.ts, c.thr, prof, 5, var);
      ASSERT_EQ(lb.feasible, measured.feasible)
          << c.name << " " << var.to_string();
      if (measured.feasible) {
        EXPECT_LE(lb.seconds, measured.seconds)
            << c.name << " " << var.to_string();
      }
    }
  }
}

// Incremental rebuild: for a tile differing from the base only in the
// inner extents, build_step plus its histograms must equal a scratch
// build exactly — class structure and the priced SimResult.
TEST(PriceBatch, BuildStepMatchesScratchBuild) {
  const DeviceParams dev = gtx980();
  struct StepCase {
    StencilKind kind;
    ProblemSize p;
    hhc::TileSizes base;
    hhc::TileSizes stepped;
    hhc::ThreadConfig thr;
  };
  const std::vector<StepCase> cases = {
      {StencilKind::kHeat2D, {.dim = 2, .S = {1024, 1024, 0}, .T = 256},
       {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1},
       {.tT = 8, .tS1 = 16, .tS2 = 96, .tS3 = 1},
       {.n1 = 32, .n2 = 8, .n3 = 1}},
      {StencilKind::kGradient2D, {.dim = 2, .S = {1000, 1000, 0}, .T = 100},
       {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1},
       {.tT = 12, .tS1 = 24, .tS2 = 112, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      {StencilKind::kHeat3D, {.dim = 3, .S = {256, 256, 256}, .T = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 16, .tS3 = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 16},
       {.n1 = 32, .n2 = 4, .n3 = 2}},
  };
  for (const StepCase& c : cases) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile base =
        TileCostProfile::build(c.p, c.base, def.radius);
    ASSERT_TRUE(base.valid());
    // A step is bounds-only; the histograms are derived on top of it,
    // as the tuner does when it first prices the tile.
    const TileCostProfile step = base.build_step(c.stepped);
    EXPECT_FALSE(step.has_histograms());
    const TileCostProfile stepped = step.with_histograms();
    const TileCostProfile fresh =
        TileCostProfile::build(c.p, c.stepped, def.radius);
    ASSERT_TRUE(stepped.valid());
    ASSERT_TRUE(fresh.valid());

    ASSERT_EQ(stepped.classes().size(), fresh.classes().size());
    for (std::size_t cl = 0; cl < fresh.classes().size(); ++cl) {
      EXPECT_EQ(stepped.classes()[cl].mult, fresh.classes()[cl].mult);
      EXPECT_EQ(stepped.classes()[cl].blocks, fresh.classes()[cl].blocks);
      EXPECT_EQ(stepped.classes()[cl].geom, fresh.classes()[cl].geom)
          << "class " << cl;
    }
    EXPECT_EQ(stepped.empty_rows(), fresh.empty_rows());

    expect_sim_equal(
        measure_best_of(dev, def, c.p, c.stepped, c.thr, stepped),
        measure_best_of(dev, def, c.p, c.stepped, c.thr, fresh),
        "stepped vs fresh pricing");
  }
}

// build_step falls back to a full build when the precondition does
// not hold (tT differs) — still bit-identical to scratch.
TEST(PriceBatch, BuildStepFallsBackWhenOuterShapeChanges) {
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 256};
  const StencilDef& def = get_stencil(StencilKind::kHeat2D);
  const TileCostProfile base = TileCostProfile::build(
      p, {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1}, def.radius);
  ASSERT_TRUE(base.valid());
  const hhc::TileSizes other{.tT = 4, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile stepped = base.build_step(other).with_histograms();
  const TileCostProfile fresh = TileCostProfile::build(p, other, def.radius);
  ASSERT_TRUE(stepped.valid());
  ASSERT_EQ(stepped.classes().size(), fresh.classes().size());
  for (std::size_t cl = 0; cl < fresh.classes().size(); ++cl) {
    EXPECT_EQ(stepped.classes()[cl].geom, fresh.classes()[cl].geom);
  }
}

}  // namespace
}  // namespace repro::gpusim
