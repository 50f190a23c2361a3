// Cross-scheme integration: the tuned hexagonal schedule must beat the
// tuned ghost-zone baseline (the reason HHC exists), and both must
// compute identical numerics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gpusim/microbench.hpp"
#include "hhc/tiled_executor.hpp"
#include "overtile/ghost.hpp"
#include "stencil/reference.hpp"
#include "tuner/session.hpp"

namespace repro {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilKind;

TEST(Baselines, HexAndGhostComputeIdenticalResults) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {30, 26, 0}, .T = 10};
  const auto init = stencil::make_initial_grid(p, 3);
  const auto hex = hhc::run_tiled(
      def, p, {.tT = 4, .tS1 = 5, .tS2 = 8, .tS3 = 1}, init);
  const auto ghost = overtile::run_ghost(
      def, p, {.tT = 3, .b = {8, 8, 1}}, init);
  EXPECT_EQ(stencil::max_abs_diff(hex, ghost), 0.0);
}

TEST(Baselines, TunedHexBeatsTunedGhost) {
  // The Section 2 claim, as an assertion: after tuning both schemes,
  // hexagonal tiling wins (it never recomputes).
  const auto& def = get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 1024};
  const auto& dev = gpusim::gtx980();
  const model::ModelInputs in = gpusim::calibrate_model(dev, def);

  // Hex: model-guided candidates, best measured.
  tuner::EnumOptions opt;
  opt.tT_max = 24;
  opt.tS1_max = 32;
  opt.tS1_step = 4;
  const auto space = tuner::enumerate_feasible(2, in.hw, opt);
  tuner::Session session(tuner::TuningContext::with_inputs(dev, def, p, in),
                         tuner::SessionOptions{}.with_jobs(1));
  const auto sweep = session.sweep_model(space, 0.10);
  const tuner::EvaluatedPoint hex = session.best_tile(sweep.candidates);
  const double hex_best =
      hex.feasible ? hex.texec : std::numeric_limits<double>::infinity();

  // Ghost: exhaustive over its own small space.
  double ghost_best = std::numeric_limits<double>::infinity();
  for (const std::int64_t tT : {1LL, 2LL, 4LL, 8LL}) {
    for (const std::int64_t b1 : {8LL, 16LL, 32LL}) {
      for (const std::int64_t b2 : {32LL, 64LL, 128LL}) {
        for (const auto& thr : tuner::default_thread_configs(2)) {
          const auto r = overtile::measure_ghost_best_of(
              dev, def, p, {.tT = tT, .b = {b1, b2, 1}}, thr);
          if (r.feasible) ghost_best = std::min(ghost_best, r.seconds);
        }
      }
    }
  }

  ASSERT_TRUE(std::isfinite(hex_best));
  ASSERT_TRUE(std::isfinite(ghost_best));
  EXPECT_LT(hex_best, ghost_best);
}

TEST(Baselines, GhostAtDepthOneIsTheNaivePerStepScheme) {
  // tT = 1 ghost tiling is exactly the classic one-kernel-per-step
  // wavefront code the paper's Section 4.3 closes with; it must be
  // strictly memory-bound and much slower than time-tiled execution.
  const auto& def = get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 512};
  const auto& dev = gpusim::gtx980();
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};

  const auto naive = overtile::measure_ghost_best_of(
      dev, def, p, {.tT = 1, .b = {32, 128, 1}}, thr);
  const auto tiled = gpusim::measure_best_of(
      dev, def, p, {.tT = 16, .tS1 = 16, .tS2 = 64, .tS3 = 1}, thr);
  ASSERT_TRUE(naive.feasible);
  ASSERT_TRUE(tiled.feasible);
  EXPECT_GT(naive.seconds, tiled.seconds * 1.5);
}

}  // namespace
}  // namespace repro
