// Parity suite for the two-stage tile-cost pipeline: the collapsed
// profile (TileCostProfile::build) must price every configuration
// bitwise-identically to the fully-enumerated reference walk
// (build_reference), across dimensions, boundary-clipped tiles, spill
// and low-occupancy configs, and radius-2 stencils. This is what
// makes the O(classes) fast path safe to use everywhere.
#include "gpusim/cost_profile.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpusim/timing.hpp"
#include "stencil/stencil.hpp"
#include "support/event_sim.hpp"

namespace repro::gpusim {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilDef;
using stencil::StencilKind;

struct ParityCase {
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

std::vector<ParityCase> parity_cases() {
  return {
      // 1D, tile sizes that do not divide T or S1 (clipped rows and
      // boundary tiles on both ends).
      {"1d_clipped", StencilKind::kJacobi1D,
       {.dim = 1, .S = {10000, 0, 0}, .T = 500},
       {.tT = 6, .tS1 = 48, .tS2 = 1, .tS3 = 1},
       {.n1 = 128, .n2 = 1, .n3 = 1}},
      // 1D, radius-2 stencil (skew slope 2, wider halos).
      {"1d_radius2", StencilKind::kGauss1D,
       {.dim = 1, .S = {8192, 0, 0}, .T = 256},
       {.tT = 4, .tS1 = 64, .tS2 = 1, .tS3 = 1},
       {.n1 = 64, .n2 = 1, .n3 = 1}},
      // 2D, the timing test's bread-and-butter configuration.
      {"2d_interior", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 256},
       {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1},
       {.n1 = 32, .n2 = 8, .n3 = 1}},
      // 2D, T not a multiple of tT and S1 not a multiple of the row
      // pitch: clipped top row plus boundary hexagons.
      {"2d_clipped", StencilKind::kGradient2D,
       {.dim = 2, .S = {1000, 1000, 0}, .T = 100},
       {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      // 2D, radius-2 star (bands skew twice as fast).
      {"2d_radius2", StencilKind::kWideStar2D,
       {.dim = 2, .S = {512, 512, 0}, .T = 64},
       {.tT = 4, .tS1 = 16, .tS2 = 32, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      // 2D, register-spilling config: big tile, tiny 32x1 block.
      {"2d_spill", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 128},
       {.tT = 8, .tS1 = 32, .tS2 = 128, .tS3 = 1},
       {.n1 = 32, .n2 = 1, .n3 = 1}},
      // 2D, low occupancy: thread block large enough that residency
      // drops to k == 1.
      {"2d_low_occupancy", StencilKind::kJacobi2D,
       {.dim = 2, .S = {2048, 2048, 0}, .T = 64},
       {.tT = 2, .tS1 = 10, .tS2 = 250, .tS3 = 1},
       {.n1 = 32, .n2 = 16, .n3 = 1}},
      // 3D, interior-dominated.
      {"3d_interior", StencilKind::kHeat3D,
       {.dim = 3, .S = {256, 256, 256}, .T = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 16, .tS3 = 32},
       {.n1 = 32, .n2 = 4, .n3 = 2}},
      // 3D with clipping in every dimension.
      {"3d_clipped", StencilKind::kJacobi3D,
       {.dim = 3, .S = {100, 100, 100}, .T = 30},
       {.tT = 4, .tS1 = 12, .tS2 = 24, .tS3 = 24},
       {.n1 = 32, .n2 = 2, .n3 = 2}},
  };
}

TEST(ProfileParity, SimulateTimeBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile fast =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const TileCostProfile ref =
        TileCostProfile::build_reference(c.p, c.ts, def.radius);
    ASSERT_TRUE(fast.valid()) << c.name << ": " << fast.error();
    ASSERT_TRUE(ref.valid()) << c.name << ": " << ref.error();
    for (const std::uint64_t run : {0ULL, 1ULL, 7ULL}) {
      expect_sim_equal(
          simulate_time(gtx980(), def, c.p, c.ts, c.thr, fast, run),
          simulate_time(gtx980(), def, c.p, c.ts, c.thr, ref, run),
          c.name + " run " + std::to_string(run));
    }
    // And via the profile-free convenience overload.
    expect_sim_equal(simulate_time(gtx980(), def, c.p, c.ts, c.thr),
                     simulate_time(gtx980(), def, c.p, c.ts, c.thr, ref, 0),
                     c.name + " free function");
  }
}

TEST(ProfileParity, MeasureBestOfBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile fast =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const TileCostProfile ref =
        TileCostProfile::build_reference(c.p, c.ts, def.radius);
    expect_sim_equal(measure_best_of(gtx980(), def, c.p, c.ts, c.thr, fast),
                     measure_best_of(gtx980(), def, c.p, c.ts, c.thr, ref),
                     c.name);
  }
}

TEST(ProfileParity, ComputeOnlyBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile fast =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const TileCostProfile ref =
        TileCostProfile::build_reference(c.p, c.ts, def.radius);
    EXPECT_EQ(simulate_compute_only(gtx980(), def, c.p, c.ts, c.thr, fast),
              simulate_compute_only(gtx980(), def, c.p, c.ts, c.thr, ref))
        << c.name;
  }
}

TEST(ProfileParity, EventSimCongruentReuseBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    EventSimOptions reuse;
    reuse.reuse_congruent_tiles = true;
    EventSimOptions enumerate;
    enumerate.reuse_congruent_tiles = false;
    const EventSimResult a =
        simulate_time_event(gtx980(), def, c.p, c.ts, c.thr, reuse);
    const EventSimResult b =
        simulate_time_event(gtx980(), def, c.p, c.ts, c.thr, enumerate);
    EXPECT_EQ(a.feasible, b.feasible) << c.name;
    EXPECT_EQ(a.infeasible_reason, b.infeasible_reason) << c.name;
    EXPECT_EQ(a.seconds, b.seconds) << c.name;
    EXPECT_EQ(a.kernel_calls, b.kernel_calls) << c.name;
    EXPECT_EQ(a.blocks, b.blocks) << c.name;
    EXPECT_EQ(a.mem_channel_busy, b.mem_channel_busy) << c.name;
    EXPECT_EQ(a.sm_compute_busy, b.sm_compute_busy) << c.name;
  }
}

TEST(ProfileParity, ReferenceWalkNeverFindsCongruenceMismatch) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile ref =
        TileCostProfile::build_reference(c.p, c.ts, def.radius);
    ASSERT_TRUE(ref.valid()) << c.name;
    EXPECT_EQ(ref.congruence_mismatches(), 0) << c.name;
  }
}

TEST(ProfileParity, CollapseCompressesRowsIntoFewClasses) {
  // The whole point of stage one: paper-scale schedules have millions
  // of rows but only a handful of congruence classes.
  const ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 1024};
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile prof = TileCostProfile::build(p, ts, 1);
  ASSERT_TRUE(prof.valid());
  EXPECT_GT(prof.total_rows(), 100);
  EXPECT_LE(static_cast<std::int64_t>(prof.classes().size()),
            prof.total_rows() / 10);
  // The profile still accounts for every row and block.
  const TileCostProfile ref = TileCostProfile::build_reference(p, ts, 1);
  EXPECT_EQ(prof.total_rows(), ref.total_rows());
  EXPECT_EQ(prof.total_blocks(), ref.total_blocks());
  EXPECT_EQ(prof.empty_rows(), ref.empty_rows());
}

TEST(ProfileParity, InvalidGeometryIsReportedNotThrown) {
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 256};
  const hhc::TileSizes odd_tt{.tT = 7, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile prof = TileCostProfile::build(p, odd_tt, 1);
  EXPECT_FALSE(prof.valid());
  EXPECT_FALSE(prof.error().empty());
  EXPECT_TRUE(prof.classes().empty());
}

}  // namespace
}  // namespace repro::gpusim
