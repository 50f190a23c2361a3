// Admissibility property tests for gpusim::lower_bound: the floor
// must never exceed the simulated time — for any run_id, for the
// best-of-5 wrapper, across dimensions, clipped/spill/low-occupancy
// configurations, and a seeded random sample of the feasible space.
// The tuner's pruning correctness (tuner/session.hpp) rests entirely
// on this inequality, and on tile_floor staying at or below every
// point bound of the axes it covers.
#include "gpusim/lower_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/timing.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"
#include "tuner/space.hpp"

namespace repro::gpusim {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilDef;
using stencil::StencilKind;

struct BoundCase {
  std::string name;
  StencilKind kind;
  ProblemSize p;
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
};

// The profile-parity suite's coverage set: every dimension, boundary
// clipping, radius 2, register spill and k == 1 occupancy.
std::vector<BoundCase> bound_cases() {
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

void expect_admissible(const BoundCase& c) {
  const StencilDef& def = get_stencil(c.kind);
  const TileCostProfile prof = TileCostProfile::build(c.p, c.ts, def.radius);
  const LowerBound lb =
      lower_bound(gtx980(), def, c.p, c.ts, c.thr, prof);
  // Feasibility must agree with the simulator's verdict.
  const SimResult sim0 =
      simulate_time(gtx980(), def, c.p, c.ts, c.thr, prof, /*run_id=*/0);
  ASSERT_EQ(lb.feasible, sim0.feasible) << c.name;
  if (!lb.feasible) {
    EXPECT_TRUE(std::isinf(lb.seconds)) << c.name;
    return;
  }
  EXPECT_GT(lb.seconds, 0.0) << c.name;
  // A floor for every run_id (the jitter factor never drops below 1)...
  for (const std::uint64_t run : {0ULL, 1ULL, 7ULL, 123ULL}) {
    const SimResult sim =
        simulate_time(gtx980(), def, c.p, c.ts, c.thr, prof, run);
    ASSERT_TRUE(sim.feasible) << c.name;
    EXPECT_LE(lb.seconds, sim.seconds) << c.name << " run " << run;
  }
  // ...and therefore of the best-of-5 wrapper the tuner measures.
  const SimResult best = measure_best_of(gtx980(), def, c.p, c.ts, c.thr,
                                         prof);
  EXPECT_LE(lb.seconds, best.seconds) << c.name;
  // The diagnostic decomposition: each component is itself a floor.
  EXPECT_LE(lb.compute_floor, lb.seconds) << c.name;
  EXPECT_LE(lb.memory_floor, lb.seconds) << c.name;
  EXPECT_LE(lb.overhead_floor, lb.seconds) << c.name;
  EXPECT_GT(lb.overhead_floor, 0.0) << c.name;  // launches are never free
}

TEST(LowerBound, AdmissibleAcrossParitySuite) {
  for (const BoundCase& c : bound_cases()) expect_admissible(c);
}

TEST(LowerBound, ProfileOverloadMatchesConvenienceOverload) {
  for (const BoundCase& c : bound_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile prof =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const LowerBound a = lower_bound(gtx980(), def, c.p, c.ts, c.thr, prof);
    const LowerBound b = lower_bound(gtx980(), def, c.p, c.ts, c.thr);
    EXPECT_EQ(a.feasible, b.feasible) << c.name;
    EXPECT_EQ(a.seconds, b.seconds) << c.name;
    EXPECT_EQ(a.compute_floor, b.compute_floor) << c.name;
    EXPECT_EQ(a.memory_floor, b.memory_floor) << c.name;
    EXPECT_EQ(a.overhead_floor, b.overhead_floor) << c.name;
  }
}

TEST(LowerBound, InfeasibleConfigurationIsInfinite) {
  const StencilDef& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 256};
  // Odd tT: the geometry itself is invalid.
  const LowerBound odd = lower_bound(
      gtx980(), def, p, {.tT = 7, .tS1 = 16, .tS2 = 64, .tS3 = 1},
      {.n1 = 32, .n2 = 8, .n3 = 1});
  EXPECT_FALSE(odd.feasible);
  EXPECT_TRUE(std::isinf(odd.seconds));
  // Valid geometry, illegal thread block: the total thread count
  // exceeds max_threads_per_block, so resolve_config rejects it.
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::ThreadConfig bad_thr{.n1 = 1024, .n2 = 4, .n3 = 1};
  const SimResult sim = simulate_time(gtx980(), def, p, ts, bad_thr);
  const LowerBound lb = lower_bound(gtx980(), def, p, ts, bad_thr);
  ASSERT_FALSE(sim.feasible);  // the premise of this test
  EXPECT_FALSE(lb.feasible);
  EXPECT_TRUE(std::isinf(lb.seconds));
}

TEST(LowerBound, AdmissibleOnSeededRandomFeasibleSample) {
  // Seeded sweep over random (tile, thread) draws per dimension; only
  // simulator-feasible draws assert the inequality, and the sample
  // must actually contain a healthy number of them.
  const struct {
    StencilKind kind;
    ProblemSize p;
  } spaces[] = {
      {StencilKind::kJacobi1D, {.dim = 1, .S = {4096, 0, 0}, .T = 128}},
      {StencilKind::kHeat2D, {.dim = 2, .S = {512, 512, 0}, .T = 64}},
      {StencilKind::kHeat3D, {.dim = 3, .S = {96, 96, 96}, .T = 16}},
  };
  Rng rng(2026);
  int feasible_seen = 0;
  for (const auto& sp : spaces) {
    const StencilDef& def = get_stencil(sp.kind);
    for (int draw = 0; draw < 40; ++draw) {
      hhc::TileSizes ts;
      ts.tT = 2 * rng.uniform_int(1, 8);
      ts.tS1 = rng.uniform_int(2, 32);
      ts.tS2 = sp.p.dim >= 2 ? 8 * rng.uniform_int(1, 16) : 1;
      ts.tS3 = sp.p.dim >= 3 ? 8 * rng.uniform_int(1, 8) : 1;
      hhc::ThreadConfig thr;
      thr.n1 = 32 * static_cast<int>(rng.uniform_int(1, 4));
      thr.n2 = sp.p.dim >= 2 ? static_cast<int>(rng.uniform_int(1, 8)) : 1;
      thr.n3 = sp.p.dim >= 3 ? static_cast<int>(rng.uniform_int(1, 4)) : 1;
      const LowerBound lb = lower_bound(gtx980(), def, sp.p, ts, thr);
      const SimResult sim = simulate_time(gtx980(), def, sp.p, ts, thr);
      ASSERT_EQ(lb.feasible, sim.feasible)
          << sp.p.dim << "D draw " << draw;
      if (!sim.feasible) continue;
      ++feasible_seen;
      EXPECT_LE(lb.seconds, sim.seconds) << sp.p.dim << "D draw " << draw;
      const SimResult best = measure_best_of(gtx980(), def, sp.p, ts, thr);
      EXPECT_LE(lb.seconds, best.seconds) << sp.p.dim << "D draw " << draw;
    }
  }
  EXPECT_GE(feasible_seen, 20);
}

// tile_floor must sit at or below the point bound of every (thread,
// variant) pair on the axes it was given, bit for bit, and be +inf
// exactly when no pair resolves. Checked with the bounds-only profile
// the Session bounds against.
void expect_tile_floor_admissible(const StencilDef& def, const ProblemSize& p,
                                  const hhc::TileSizes& ts,
                                  std::span<const hhc::ThreadConfig> thrs,
                                  const std::string& what) {
  const std::span<const stencil::KernelVariant> vars =
      stencil::all_kernel_variants();
  const TileCostProfile prof = TileCostProfile::build_bounds(p, ts, def.radius);
  const LowerBound floor = tile_floor(gtx980(), def, p, ts, thrs, vars, prof);
  bool any_feasible = false;
  for (const stencil::KernelVariant& var : vars) {
    for (const hhc::ThreadConfig& thr : thrs) {
      const LowerBound lb = lower_bound(gtx980(), def, p, ts, thr, prof, var);
      any_feasible = any_feasible || lb.feasible;
      EXPECT_LE(floor.seconds, lb.seconds)
          << what << " threads " << thr.total() << " unroll " << var.unroll;
    }
  }
  EXPECT_EQ(floor.feasible, any_feasible) << what;
  EXPECT_EQ(std::isinf(floor.seconds), !any_feasible) << what;
  // The default-variant axis alone (an empty span) is a narrower axis,
  // so its floor can only be as high or higher.
  const LowerBound narrow = tile_floor(gtx980(), def, p, ts, thrs, {}, prof);
  EXPECT_LE(floor.seconds, narrow.seconds) << what;
  for (const hhc::ThreadConfig& thr : thrs) {
    EXPECT_LE(narrow.seconds,
              lower_bound(gtx980(), def, p, ts, thr, prof).seconds)
        << what << " default variant, threads " << thr.total();
  }
}

TEST(TileFloor, BelowEveryPointBoundOnTheParitySuite) {
  for (const BoundCase& c : bound_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    std::vector<hhc::ThreadConfig> thrs =
        tuner::default_thread_configs(c.p.dim);
    thrs.push_back(c.thr);
    expect_tile_floor_admissible(def, c.p, c.ts, thrs, c.name);
    // One thread config: the floor is that point's bound when only
    // the default variant is on the axis.
    const TileCostProfile prof =
        TileCostProfile::build_bounds(c.p, c.ts, def.radius);
    const LowerBound one =
        tile_floor(gtx980(), def, c.p, c.ts, {&c.thr, 1}, {}, prof);
    EXPECT_EQ(one.seconds,
              lower_bound(gtx980(), def, c.p, c.ts, c.thr, prof).seconds)
        << c.name;
  }
}

TEST(TileFloor, BelowEveryPointBoundOnSeededGrid) {
  const struct {
    StencilKind kind;
    ProblemSize p;
  } spaces[] = {
      {StencilKind::kJacobi1D, {.dim = 1, .S = {4096, 0, 0}, .T = 128}},
      {StencilKind::kGauss1D, {.dim = 1, .S = {3000, 0, 0}, .T = 77}},
      {StencilKind::kHeat2D, {.dim = 2, .S = {512, 512, 0}, .T = 64}},
      {StencilKind::kWideStar2D, {.dim = 2, .S = {700, 300, 0}, .T = 40}},
      {StencilKind::kHeat3D, {.dim = 3, .S = {96, 96, 96}, .T = 16}},
  };
  Rng rng(2027);
  for (const auto& sp : spaces) {
    const StencilDef& def = get_stencil(sp.kind);
    const std::vector<hhc::ThreadConfig> thrs =
        tuner::default_thread_configs(sp.p.dim);
    for (int draw = 0; draw < 24; ++draw) {
      hhc::TileSizes ts;
      ts.tT = 2 * rng.uniform_int(1, 12);
      ts.tS1 = rng.uniform_int(2, 64);
      ts.tS2 = sp.p.dim >= 2 ? 8 * rng.uniform_int(1, 32) : 1;
      ts.tS3 = sp.p.dim >= 3 ? 8 * rng.uniform_int(1, 8) : 1;
      expect_tile_floor_admissible(
          def, sp.p, ts, thrs,
          std::to_string(sp.p.dim) + "D draw " + std::to_string(draw));
    }
  }
}

TEST(TileFloor, InfiniteWhenNoPairResolves) {
  const StencilDef& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 256};
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile prof = TileCostProfile::build_bounds(p, ts, def.radius);
  // Every thread block too large: no pair resolves.
  const hhc::ThreadConfig too_big[] = {{.n1 = 1024, .n2 = 4, .n3 = 1},
                                       {.n1 = 2048, .n2 = 1, .n3 = 1}};
  const LowerBound none = tile_floor(gtx980(), def, p, ts, too_big,
                                     stencil::all_kernel_variants(), prof);
  EXPECT_FALSE(none.feasible);
  EXPECT_TRUE(std::isinf(none.seconds));
  // An empty thread axis resolves nothing either.
  EXPECT_TRUE(
      std::isinf(tile_floor(gtx980(), def, p, ts, {}, {}, prof).seconds));
  // Invalid geometry: the profile itself is invalid.
  const hhc::TileSizes odd{.tT = 7, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile bad = TileCostProfile::build_bounds(p, odd, def.radius);
  const std::vector<hhc::ThreadConfig> thrs = tuner::default_thread_configs(2);
  const LowerBound invalid = tile_floor(gtx980(), def, p, odd, thrs, {}, bad);
  EXPECT_FALSE(invalid.feasible);
  EXPECT_TRUE(std::isinf(invalid.seconds));
  // A resolvable pair among unresolvable ones is enough.
  const hhc::ThreadConfig mixed[] = {too_big[0], {.n1 = 32, .n2 = 8, .n3 = 1}};
  const LowerBound some = tile_floor(gtx980(), def, p, ts, mixed, {}, prof);
  EXPECT_TRUE(some.feasible);
  EXPECT_EQ(some.seconds,
            lower_bound(gtx980(), def, p, ts, mixed[1], prof).seconds);
}

}  // namespace
}  // namespace repro::gpusim
