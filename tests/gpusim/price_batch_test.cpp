// Batched-pricing parity: the SoA fold (soa_iter_units,
// measure_best_of_batch) must reproduce the scalar per-point pipeline
// bit for bit — same integers by associativity, same floating-point
// tails because every FP expression lives in one out-of-line function
// — across dimensions, clipped tiles, spill/low-occupancy configs,
// radius-2 stencils and every kernel variant. Also pins the
// incremental profile rebuild (build_step) against a scratch build
// and the per-variant admissibility of the pruning lower bound.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// A thread sweep per dimension — including a deliberately non-warp-
// shaped config (33x3) so the underutilization rounding is exercised.
std::vector<hhc::ThreadConfig> sweep_threads(int dim) {
  if (dim == 1) {
    return {{.n1 = 32, .n2 = 1, .n3 = 1},
            {.n1 = 64, .n2 = 1, .n3 = 1},
            {.n1 = 128, .n2 = 1, .n3 = 1},
            {.n1 = 256, .n2 = 1, .n3 = 1},
            {.n1 = 33, .n2 = 3, .n3 = 1}};
  }
  if (dim == 2) {
    return {{.n1 = 32, .n2 = 1, .n3 = 1},
            {.n1 = 32, .n2 = 4, .n3 = 1},
            {.n1 = 32, .n2 = 8, .n3 = 1},
            {.n1 = 16, .n2 = 16, .n3 = 1},
            {.n1 = 33, .n2 = 3, .n3 = 1}};
  }
  return {{.n1 = 32, .n2 = 2, .n3 = 2},
          {.n1 = 16, .n2 = 4, .n3 = 4},
          {.n1 = 32, .n2 = 4, .n3 = 1},
          {.n1 = 8, .n2 = 8, .n3 = 8},
          {.n1 = 33, .n2 = 3, .n3 = 1}};
}

// The SoA unit fold alone: units_out[c] must be the exact integer the
// AoS geometry fold produces (shift fast path included — n_v = 1 and
// the warp-wave counts are powers of two here).
TEST(PriceBatch, SoaIterUnitsMatchesGeometryIterUnits) {
  for (const BatchCase& c : batch_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile prof =
        TileCostProfile::build(c.p, c.ts, def.radius);
    ASSERT_TRUE(prof.valid()) << c.name;
    for (const int threads : {32, 96, 99, 256, 1024}) {
      std::vector<std::int64_t> units(prof.classes().size());
      prof.soa_iter_units(threads, /*n_v=*/1, units.data());
      for (std::size_t cl = 0; cl < prof.classes().size(); ++cl) {
        EXPECT_EQ(units[cl],
                  geometry_iter_units(prof.classes()[cl].geom, threads, 1))
            << c.name << " class " << cl << " threads " << threads;
      }
    }
  }
}

// Property (satellite 3): measure_best_of_batch element-wise equals N
// scalar measure_best_of calls, for every case and every kernel
// variant, including the jitter protocol (runs = 5).
TEST(PriceBatch, MeasureBestOfBatchMatchesScalar) {
  const DeviceParams dev = gtx980();
  for (const BatchCase& c : batch_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile prof =
        TileCostProfile::build(c.p, c.ts, def.radius);
    ASSERT_TRUE(prof.valid()) << c.name;
    const std::vector<hhc::ThreadConfig> thrs = sweep_threads(c.p.dim);

    for (const KernelVariant& var : stencil::all_kernel_variants()) {
      std::vector<SimResult> out(thrs.size());
      measure_best_of_batch(dev, def, c.p, c.ts, thrs, prof, out,
                            /*runs=*/5, var);
      for (std::size_t j = 0; j < thrs.size(); ++j) {
        const SimResult scalar = measure_best_of(dev, def, c.p, c.ts,
                                                 thrs[j], prof, 5, var);
        expect_sim_equal(out[j], scalar,
                         c.name + " " + var.to_string() + " thr " +
                             std::to_string(j));
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
// build exactly — class structure, SoA slab and the priced SimResult.
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
    EXPECT_EQ(stepped.soa().slab, fresh.soa().slab);
    EXPECT_EQ(stepped.soa().off, fresh.soa().off);
    EXPECT_EQ(stepped.soa().nbins, fresh.soa().nbins);

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
  EXPECT_EQ(stepped.soa().slab, fresh.soa().slab);
}

}  // namespace
}  // namespace repro::gpusim
