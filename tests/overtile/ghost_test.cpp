#include "overtile/ghost.hpp"

#include <gtest/gtest.h>

#include "gpusim/microbench.hpp"
#include "stencil/reference.hpp"

namespace repro::overtile {
namespace {

using stencil::Grid;
using stencil::ProblemSize;
using stencil::StencilKind;

struct GhostCase {
  StencilKind kind;
  ProblemSize p;
  GhostTileSizes ts;
};

class GhostMatchesReference : public ::testing::TestWithParam<GhostCase> {};

TEST_P(GhostMatchesReference, BitIdenticalResult) {
  const auto& [kind, p, ts] = GetParam();
  const stencil::StencilDef& def = stencil::get_stencil(kind);
  const Grid<float> init = stencil::make_initial_grid(p, 0xBEEF);
  const Grid<float> expect = stencil::run_reference(def, p, init);
  GhostStats stats;
  const Grid<float> got = run_ghost(def, p, ts, init, &stats);
  EXPECT_EQ(stencil::max_abs_diff(expect, got), 0.0)
      << def.name << " " << p.to_string() << " " << ts.to_string();
  EXPECT_GE(stats.computed_points, p.total_points());
}

// Constant-initialised, so the padding bytes gtest prints into each
// test name are zero rather than whatever the stack last held.
constexpr GhostCase kGhostCases[] = {
    GhostCase{StencilKind::kJacobi1D, {1, {40, 0, 0}, 11},
              {.tT = 3, .b = {8, 1, 1}}},
    GhostCase{StencilKind::kJacobi2D, {2, {20, 17, 0}, 7},
              {.tT = 2, .b = {6, 5, 1}}},
    GhostCase{StencilKind::kHeat2D, {2, {16, 16, 0}, 9},
              {.tT = 4, .b = {8, 8, 1}}},
    GhostCase{StencilKind::kGradient2D, {2, {14, 14, 0}, 5},
              {.tT = 1, .b = {4, 4, 1}}},
    GhostCase{StencilKind::kHeat3D, {3, {9, 8, 7}, 5},
              {.tT = 2, .b = {4, 4, 4}}},
    // Radius-2 stencil through the ghost path.
    GhostCase{StencilKind::kWideStar2D, {2, {15, 13, 0}, 6},
              {.tT = 2, .b = {5, 6, 1}}},
    // Tile bigger than the domain: one block, no redundancy.
    GhostCase{StencilKind::kJacobi2D, {2, {8, 8, 0}, 4},
              {.tT = 4, .b = {32, 32, 1}}}};

INSTANTIATE_TEST_SUITE_P(
    Stencils, GhostMatchesReference, ::testing::ValuesIn(kGhostCases),
    [](const ::testing::TestParamInfo<GhostCase>& info) {
      return std::string(stencil::to_string(info.param.kind)) + "_" +
             std::to_string(info.index);
    });

TEST(Ghost, RedundancyGrowsWithTimeDepth) {
  const auto& def = stencil::get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {32, 32, 0}, .T = 8};
  const auto init = stencil::make_initial_grid(p, 1);
  double prev = 1.0;
  for (const std::int64_t tT : {1, 2, 4, 8}) {
    GhostStats stats;
    (void)run_ghost(def, p, {.tT = tT, .b = {8, 8, 1}}, init, &stats);
    EXPECT_GE(stats.redundancy(), prev);
    prev = stats.redundancy();
  }
  EXPECT_GT(prev, 1.5);  // deep time tiles recompute a lot
}

TEST(Ghost, SingleBlockHasNoRedundancy) {
  const auto& def = stencil::get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {16, 16, 0}, .T = 4};
  GhostStats stats;
  (void)run_ghost(def, p, {.tT = 4, .b = {64, 64, 1}},
                  stencil::make_initial_grid(p, 1), &stats);
  // A single tile covering the domain computes each point once (the
  // halo lies outside the domain and is skipped).
  EXPECT_EQ(stats.computed_points, p.total_points());
  EXPECT_EQ(stats.thread_blocks, 1);
}

TEST(Ghost, BlockComputeAccountingMatchesExecutor) {
  // ghost_block_compute_points must equal the interior blocks' actual
  // computed points per superstep.
  const auto& def = stencil::get_stencil(StencilKind::kJacobi2D);
  const GhostTileSizes ts{.tT = 3, .b = {4, 4, 1}};
  // Domain so large relative to the halo that every block's extended
  // box stays inside: use one superstep and count.
  const ProblemSize p{.dim = 2, .S = {4 * 10, 4 * 10, 0}, .T = 3};
  GhostStats stats;
  (void)run_ghost(def, p, ts, stencil::make_initial_grid(p, 2), &stats);
  // Interior blocks dominate; total computed must be bounded by
  // blocks * per-block formula and at least the core work.
  const std::int64_t per_block = ghost_block_compute_points(2, ts, 1);
  EXPECT_LE(stats.computed_points, stats.thread_blocks * per_block);
  EXPECT_GE(stats.computed_points, p.total_points());
}

TEST(Ghost, SharedWordsFormula) {
  const GhostTileSizes ts{.tT = 2, .b = {8, 16, 1}};
  EXPECT_EQ(ghost_shared_words(2, ts, 1), 2 * (8 + 4) * (16 + 4));
  EXPECT_EQ(ghost_shared_words(1, ts, 2), 2 * (8 + 8));
}

TEST(Ghost, ValidateRejectsBadSizes) {
  EXPECT_THROW(validate({.tT = 0, .b = {4, 4, 1}}, 2),
               std::invalid_argument);
  EXPECT_THROW(validate({.tT = 2, .b = {0, 4, 1}}, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(validate({.tT = 2, .b = {4, 4, 1}}, 2));
}

TEST(Ghost, ModelAndSimulatorProducePositiveTimes) {
  const auto& def = stencil::get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {2048, 2048, 0}, .T = 512};
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const GhostTileSizes ts{.tT = 2, .b = {16, 32, 1}};
  ASSERT_TRUE(ghost_tile_fits(2, ts, in.hw, 1));
  const model::TalgBreakdown b = ghost_talg(in, p, ts);
  EXPECT_GT(b.talg, 0.0);
  EXPECT_GE(b.k, 1);

  const auto sim = measure_ghost_best_of(gpusim::gtx980(), def, p, ts,
                                         {.n1 = 32, .n2 = 8, .n3 = 1});
  ASSERT_TRUE(sim.feasible) << sim.infeasible_reason;
  EXPECT_GT(sim.seconds, 0.0);
  // The ghost model is optimistic in the same sense as the HHC model.
  EXPECT_LT(b.talg, sim.seconds * 1.2);
}

TEST(Ghost, TimeDepthHasTheClassicCrossover) {
  // The ghost-zone scheme's defining trade-off: shallow time tiles
  // are memory-bound (the whole grid streams every couple of steps),
  // deeper tiles amortize traffic until redundant recomputation
  // dominates — a U-shaped cost in tT.
  const auto& def = stencil::get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {2048, 2048, 0}, .T = 512};
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};
  const auto t2 = measure_ghost_best_of(gpusim::gtx980(), def, p,
                                        {.tT = 2, .b = {16, 32, 1}}, thr);
  const auto t8 = measure_ghost_best_of(gpusim::gtx980(), def, p,
                                        {.tT = 8, .b = {16, 32, 1}}, thr);
  const auto t16 = measure_ghost_best_of(gpusim::gtx980(), def, p,
                                         {.tT = 16, .b = {16, 32, 1}}, thr);
  ASSERT_TRUE(t2.feasible);
  ASSERT_TRUE(t8.feasible);
  ASSERT_TRUE(t16.feasible);
  EXPECT_GT(t2.seconds, t8.seconds) << "shallow side should be memory-bound";
  EXPECT_GT(t16.seconds, t8.seconds) << "deep side should pay redundancy";
}

TEST(Ghost, InfeasibleWhenHaloOverflowsSharedMemory) {
  const auto& def = stencil::get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 64};
  const auto sim = simulate_ghost_time(gpusim::gtx980(), def, p,
                                       {.tT = 32, .b = {64, 64, 1}},
                                       {.n1 = 32, .n2 = 8, .n3 = 1});
  EXPECT_FALSE(sim.feasible);
}

}  // namespace
}  // namespace repro::overtile
