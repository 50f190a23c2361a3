// The keystone correctness test: the HHC-tiled executor must produce
// bit-identical results to the untiled reference for every stencil,
// dimension, and a sweep of tile sizes (including degenerate ones).
#include "hhc/tiled_executor.hpp"

#include <gtest/gtest.h>

#include "common/math_util.hpp"
#include "stencil/reference.hpp"

namespace repro::hhc {
namespace {

using stencil::Grid;
using stencil::ProblemSize;
using stencil::StencilKind;

struct TiledCase {
  StencilKind kind;
  ProblemSize p;
  TileSizes ts;
};

class TiledMatchesReference : public ::testing::TestWithParam<TiledCase> {};

TEST_P(TiledMatchesReference, BitIdenticalResult) {
  const auto& [kind, p, ts] = GetParam();
  const stencil::StencilDef& def = stencil::get_stencil(kind);
  const Grid<float> init = stencil::make_initial_grid(p, 0xC0FFEE);
  const Grid<float> expect = stencil::run_reference(def, p, init);
  ExecStats stats;
  const Grid<float> got = run_tiled(def, p, ts, init, &stats);
  EXPECT_EQ(stencil::max_abs_diff(expect, got), 0.0)
      << "tiled execution diverged for " << def.name << " "
      << p.to_string() << " " << ts.to_string();
  EXPECT_EQ(stats.points, p.total_points());
}

// Constant-initialised, so the padding bytes gtest prints into each
// test name are zero rather than whatever the stack last held.
constexpr TiledCase kTiledCases[] = {
    // 1D.
    TiledCase{StencilKind::kJacobi1D, {1, {50, 0, 0}, 17},
              {.tT = 4, .tS1 = 5, .tS2 = 1, .tS3 = 1}},
    TiledCase{StencilKind::kJacobi1D, {1, {33, 0, 0}, 8},
              {.tT = 2, .tS1 = 1, .tS2 = 1, .tS3 = 1}},
    TiledCase{StencilKind::kJacobi1D, {1, {64, 0, 0}, 30},
              {.tT = 16, .tS1 = 3, .tS2 = 1, .tS3 = 1}},
    // 2D, all four paper benchmarks.
    TiledCase{StencilKind::kJacobi2D, {2, {24, 19, 0}, 11},
              {.tT = 4, .tS1 = 4, .tS2 = 8, .tS3 = 1}},
    TiledCase{StencilKind::kHeat2D, {2, {21, 17, 0}, 9},
              {.tT = 6, .tS1 = 3, .tS2 = 4, .tS3 = 1}},
    TiledCase{StencilKind::kLaplacian2D, {2, {16, 33, 0}, 7},
              {.tT = 2, .tS1 = 7, .tS2 = 16, .tS3 = 1}},
    TiledCase{StencilKind::kGradient2D, {2, {18, 18, 0}, 8},
              {.tT = 4, .tS1 = 2, .tS2 = 5, .tS3 = 1}},
    // Tile larger than the domain (single-tile degenerate case).
    TiledCase{StencilKind::kJacobi2D, {2, {8, 8, 0}, 4},
              {.tT = 12, .tS1 = 32, .tS2 = 64, .tS3 = 1}},
    // 3D benchmarks.
    TiledCase{StencilKind::kHeat3D, {3, {10, 9, 8}, 6},
              {.tT = 4, .tS1 = 3, .tS2 = 4, .tS3 = 2}},
    TiledCase{StencilKind::kLaplacian3D, {3, {8, 8, 12}, 5},
              {.tT = 2, .tS1 = 2, .tS2 = 8, .tS3 = 4}},
    TiledCase{StencilKind::kJacobi3D, {3, {7, 7, 7}, 7},
              {.tT = 6, .tS1 = 1, .tS2 = 2, .tS3 = 16}}};

INSTANTIATE_TEST_SUITE_P(
    Stencils, TiledMatchesReference, ::testing::ValuesIn(kTiledCases),
    [](const ::testing::TestParamInfo<TiledCase>& info) {
      const auto& c = info.param;
      return std::string(stencil::to_string(c.kind)) + "_" +
             std::to_string(info.index);
    });

TEST(TiledExecutor, StatsCensusMatchesSchedule) {
  const stencil::StencilDef& def = stencil::get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {40, 24, 0}, .T = 12};
  const TileSizes ts{.tT = 4, .tS1 = 4, .tS2 = 8, .tS3 = 1};
  const Grid<float> init = stencil::make_initial_grid(p, 1);
  ExecStats stats;
  (void)run_tiled(def, p, ts, init, &stats);

  // Kernel calls = Nw (exact); model says 2*ceil(T/tT) + eps.
  const std::int64_t approx = 2 * repro::ceil_div(p.T, ts.tT);
  EXPECT_GE(stats.kernel_calls, approx);
  EXPECT_LE(stats.kernel_calls, approx + 1);
  EXPECT_GT(stats.thread_blocks, 0);
  EXPECT_GE(stats.sub_tiles, stats.thread_blocks);
  EXPECT_EQ(stats.points, p.total_points());
}

TEST(TiledExecutor, RejectsOddTimeTile) {
  const stencil::StencilDef& def = stencil::get_stencil(StencilKind::kJacobi1D);
  const ProblemSize p{.dim = 1, .S = {16, 0, 0}, .T = 4};
  const Grid<float> init = stencil::make_initial_grid(p, 1);
  EXPECT_THROW(
      run_tiled(def, p, {.tT = 3, .tS1 = 4, .tS2 = 1, .tS3 = 1}, init),
      std::invalid_argument);
}

TEST(TiledExecutor, RejectsDimMismatch) {
  const stencil::StencilDef& def = stencil::get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 3, .S = {8, 8, 8}, .T = 2};
  const Grid<float> init(3, p.S);
  EXPECT_THROW(
      run_tiled(def, p, {.tT = 2, .tS1 = 2, .tS2 = 2, .tS3 = 2}, init),
      std::invalid_argument);
}

TEST(TiledExecutor, ParallelRowsMatchSerialExecution) {
  // Tiles within a wavefront row are independent, so the OpenMP
  // variant must be bit-identical to the serial one — for every
  // dimension and including a radius-2 stencil.
  struct Case {
    StencilKind kind;
    ProblemSize p;
    TileSizes ts;
  };
  const Case cases[] = {
      {StencilKind::kJacobi1D, {1, {120, 0, 0}, 24},
       {.tT = 6, .tS1 = 4, .tS2 = 1, .tS3 = 1}},
      {StencilKind::kHeat2D, {2, {48, 40, 0}, 14},
       {.tT = 4, .tS1 = 4, .tS2 = 8, .tS3 = 1}},
      {StencilKind::kHeat3D, {3, {12, 12, 12}, 6},
       {.tT = 2, .tS1 = 2, .tS2 = 4, .tS3 = 4}},
      {StencilKind::kWideStar2D, {2, {30, 30, 0}, 8},
       {.tT = 4, .tS1 = 4, .tS2 = 8, .tS3 = 1}},
  };
  for (const Case& c : cases) {
    const stencil::StencilDef& def = stencil::get_stencil(c.kind);
    const Grid<float> init = stencil::make_initial_grid(c.p, 77);
    ExecStats serial_stats;
    ExecStats parallel_stats;
    const Grid<float> serial = run_tiled(def, c.p, c.ts, init, &serial_stats);
    const Grid<float> parallel =
        run_tiled_parallel(def, c.p, c.ts, init, &parallel_stats);
    EXPECT_EQ(stencil::max_abs_diff(serial, parallel), 0.0) << def.name;
    EXPECT_EQ(serial_stats.points, parallel_stats.points);
    EXPECT_EQ(serial_stats.thread_blocks, parallel_stats.thread_blocks);
    EXPECT_EQ(serial_stats.kernel_calls, parallel_stats.kernel_calls);
  }
}

TEST(TiledExecutor, SingleTimeStep) {
  const stencil::StencilDef& def = stencil::get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 2, .S = {12, 12, 0}, .T = 1};
  const Grid<float> init = stencil::make_initial_grid(p, 3);
  const Grid<float> expect = stencil::run_reference(def, p, init);
  const Grid<float> got =
      run_tiled(def, p, {.tT = 4, .tS1 = 4, .tS2 = 4, .tS3 = 1}, init);
  EXPECT_EQ(stencil::max_abs_diff(expect, got), 0.0);
}

}  // namespace
}  // namespace repro::hhc
