#include "tuner/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "gpusim/microbench.hpp"
#include "tuner/session.hpp"

namespace repro::tuner {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilKind;

const ProblemSize kSmall2D{.dim = 2, .S = {2048, 2048, 0}, .T = 256};

EnumOptions small_space() {
  EnumOptions opt;
  opt.tT_max = 16;
  opt.tT_step = 2;
  opt.tS1_max = 24;
  opt.tS1_step = 4;
  opt.tS2_max = 128;
  opt.tS2_step = 32;
  return opt;
}

// A serial session over an existing calibration.
Session serial_session(const stencil::StencilDef& def,
                       const model::ModelInputs& in) {
  return Session(
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in),
      SessionOptions{}.with_jobs(1));
}

TEST(Optimizer, SweepFindsMinAndCandidates) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const auto space = enumerate_feasible(2, in.hw, small_space());
  Session session = serial_session(def, in);
  const ModelSweep sweep = session.sweep_model(space, 0.10);

  EXPECT_EQ(sweep.space_size, space.size());
  EXPECT_GT(sweep.talg_min, 0.0);
  EXPECT_FALSE(sweep.candidates.empty());
  // The argmin itself must be among the candidates.
  bool has_argmin = false;
  for (const auto& ts : sweep.candidates) {
    if (ts == sweep.argmin) has_argmin = true;
    // Every candidate within the 10% cutoff.
    EXPECT_LE(model::talg_auto_k(in, kSmall2D, ts).talg,
              sweep.talg_min * 1.10 * (1.0 + 1e-12));
  }
  EXPECT_TRUE(has_argmin);
  // "There were less than 200 such points" (Contribution 3) — the
  // candidate set must be a small fraction of the space.
  EXPECT_LT(sweep.candidates.size(), space.size() / 2);
}

TEST(Optimizer, EvaluatePointFillsBothSides) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const DataPoint dp{{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1},
                     {.n1 = 32, .n2 = 8, .n3 = 1}};
  Session session = serial_session(def, in);
  const EvaluatedPoint ep = session.evaluate_point(dp);
  ASSERT_TRUE(ep.feasible);
  EXPECT_GT(ep.talg, 0.0);
  EXPECT_GT(ep.texec, 0.0);
  EXPECT_GT(ep.gflops, 0.0);
}

TEST(Optimizer, BestOverThreadsNotWorseThanAnySingleConfig) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const hhc::TileSizes ts{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1};
  Session session = serial_session(def, in);
  const EvaluatedPoint best = session.best_over_threads(ts);
  ASSERT_TRUE(best.feasible);
  for (const auto& thr : default_thread_configs(2)) {
    const EvaluatedPoint one = session.evaluate_point({ts, thr});
    if (one.feasible) {
      EXPECT_LE(best.texec, one.texec);
    }
  }
}

TEST(Optimizer, AnnealRespectsConstraintsAndFindsFinitePoint) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const SolverResult sol = anneal_talg(in, kSmall2D, small_space(), 7, 300);
  EXPECT_TRUE(std::isfinite(sol.talg));
  EXPECT_EQ(sol.ts.tT % 2, 0);
  EXPECT_TRUE(model::tile_fits(2, sol.ts, in.hw));
  EXPECT_GT(sol.evaluations, 0);
}

TEST(Optimizer, AnnealRejectsNonPositiveSteps) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  EnumOptions bad = small_space();
  bad.tS2_step = 0;  // would divide by zero in the neighbor moves
  EXPECT_THROW(anneal_talg(in, kSmall2D, bad, 7, 10), std::invalid_argument);
}

TEST(Optimizer, AnnealIsNoBetterThanExhaustiveSweep) {
  // The paper's point about off-the-shelf solvers: enumeration wins
  // (or at best ties). The reference enumeration must use the same
  // granularity the solver moves at (tS1 step 1).
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  EnumOptions fine = small_space();
  fine.tS1_step = 1;
  const auto space = enumerate_feasible(2, in.hw, fine);
  Session session = serial_session(def, in);
  const ModelSweep sweep = session.sweep_model(space, 0.10);
  const SolverResult sol = anneal_talg(in, kSmall2D, fine, 3, 300);
  EXPECT_GE(sol.talg, sweep.talg_min * (1.0 - 1e-9));
}

TEST(Optimizer, CompareStrategiesOrdering) {
  // Reduced-scale compare_strategies must reproduce Fig. 6's ordering:
  // exhaustive >= within10 >= ... and hhc-default worst or near-worst.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  CompareOptions opt;
  opt.enumeration = small_space();
  opt.exhaustive_cap = 60;
  opt.baseline_count = 24;
  Session session(gpusim::gtx980(), def, kSmall2D,
                  SessionOptions{}.with_jobs(1));
  const StrategyComparison cmp = session.compare_strategies(opt);

  ASSERT_TRUE(cmp.within10_best.feasible);
  ASSERT_TRUE(cmp.baseline_best.feasible);
  ASSERT_TRUE(cmp.exhaustive.feasible);
  ASSERT_TRUE(cmp.hhc_default.feasible);

  EXPECT_GE(cmp.exhaustive.gflops, cmp.within10_best.gflops * (1 - 1e-9));
  EXPECT_GE(cmp.within10_best.gflops, cmp.hhc_default.gflops);
  EXPECT_GT(cmp.candidates_tried, 0u);
  EXPECT_GT(cmp.space_size, cmp.candidates_tried);
}

}  // namespace
}  // namespace repro::tuner
