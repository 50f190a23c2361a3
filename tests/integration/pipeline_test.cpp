// End-to-end pipeline: calibrate -> predict -> measure -> optimize,
// on reduced problem sizes, checking the cross-module contracts.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "gpusim/microbench.hpp"
#include "gpusim/timing.hpp"
#include "hhc/tiled_executor.hpp"
#include "model/talg.hpp"
#include "stencil/reference.hpp"
#include "tuner/session.hpp"

namespace repro {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilKind;

TEST(Pipeline, ModelIsOptimisticNearGoodConfigurations) {
  // For a well-shaped configuration the model should predict a time
  // less than (or close to) the simulator's measurement — by design
  // it ignores overheads.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {2048, 2048, 0}, .T = 512};
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};

  const double predicted = model::talg_auto_k(in, p, ts).talg;
  const gpusim::SimResult measured =
      gpusim::measure_best_of(gpusim::gtx980(), def, p, ts, thr);
  ASSERT_TRUE(measured.feasible);
  EXPECT_LT(predicted, measured.seconds * 1.15);
}

TEST(Pipeline, ModelPredictionCorrelatesWithSimulatorAcrossSizesAndTiles) {
  // The paper's Fig. 3 pools all problem sizes of an experiment into
  // one scatter; correlation is over that pooled cloud.
  const auto& def = get_stencil(StencilKind::kJacobi2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};

  std::vector<double> pred;
  std::vector<double> meas;
  for (std::int64_t T : {256, 512, 1024, 2048}) {
    const ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = T};
    for (std::int64_t tT : {4, 8, 16}) {
      for (std::int64_t tS1 : {8, 16, 32}) {
        const hhc::TileSizes ts{.tT = tT, .tS1 = tS1, .tS2 = 64, .tS3 = 1};
        if (!model::tile_fits(2, ts, in.hw)) continue;
        const auto r =
            gpusim::measure_best_of(gpusim::gtx980(), def, p, ts, thr);
        if (!r.feasible) continue;
        pred.push_back(model::talg_auto_k(in, p, ts).talg);
        meas.push_back(r.seconds);
      }
    }
  }
  ASSERT_GT(pred.size(), 20u);
  EXPECT_GT(pearson(pred, meas), 0.9);
}

TEST(Pipeline, TunedTileBeatsUntunedDefaultFunctionally) {
  // Run the actual numeric computation with both the HHC-default tile
  // and a tuned tile: identical results, different predicted cost.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {48, 40, 0}, .T = 16};
  const stencil::Grid<float> init = stencil::make_initial_grid(p, 99);

  const hhc::TileSizes dflt = tuner::hhc_default_tiles(2);
  const hhc::TileSizes tuned{.tT = 8, .tS1 = 8, .tS2 = 16, .tS3 = 1};
  const auto a = hhc::run_tiled(def, p, dflt, init);
  const auto b = hhc::run_tiled(def, p, tuned, init);
  EXPECT_EQ(stencil::max_abs_diff(a, b), 0.0);
}

TEST(Pipeline, CandidateSetIsSmall) {
  // Contribution 3: the within-10% set is small enough to evaluate
  // empirically (paper: < 200 of tens of thousands).
  const auto& def = get_stencil(StencilKind::kGradient2D);
  const ProblemSize p{.dim = 2, .S = {2048, 2048, 0}, .T = 512};
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  tuner::EnumOptions opt;
  opt.tT_max = 32;
  opt.tS1_max = 48;
  opt.tS1_step = 2;
  opt.tS2_max = 256;
  const auto space = tuner::enumerate_feasible(2, in.hw, opt);
  tuner::Session session(
      tuner::TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
      tuner::SessionOptions{}.with_jobs(1));
  const tuner::ModelSweep sweep = session.sweep_model(space, 0.10);
  EXPECT_GT(space.size(), 1000u);
  EXPECT_LT(sweep.candidates.size(), 400u);
}

TEST(Pipeline, SimulatorAgreesWithExecutorCensus) {
  // The timing engine's kernel count must equal the functional
  // executor's kernel count (both derive from HexSchedule).
  const auto& def = get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 2, .S = {64, 48, 0}, .T = 24};
  const hhc::TileSizes ts{.tT = 4, .tS1 = 6, .tS2 = 8, .tS3 = 1};

  hhc::ExecStats stats;
  (void)hhc::run_tiled(def, p, ts, stencil::make_initial_grid(p, 5), &stats);

  const gpusim::SimResult sim = gpusim::simulate_time(
      gpusim::gtx980(), def, p, ts, {.n1 = 32, .n2 = 2, .n3 = 1});
  ASSERT_TRUE(sim.feasible);
  EXPECT_EQ(sim.kernel_calls, stats.kernel_calls);
}

}  // namespace
}  // namespace repro
