// Bound-and-prune correctness: pruning must be invisible in results
// — compare_strategies returns bitwise-identical winners with pruning
// on or off, and best_over_threads_many the scalar oracle's per-tile
// bests, for any job count — while actually skipping
// simulator work (points_pruned > 0, machine_points reduced). Also
// pins the SL313 delta validation at the sweep entry points.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/microbench.hpp"
#include "support/scalar_oracle.hpp"
#include "tuner/session.hpp"

namespace repro::tuner {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilKind;

const ProblemSize kSmall2D{.dim = 2, .S = {2048, 2048, 0}, .T = 256};

EnumOptions small_space() {
  return EnumOptions{}
      .with_tT_max(16)
      .with_tT_step(2)
      .with_tS1_max(24)
      .with_tS1_step(4)
      .with_tS2_max(128)
      .with_tS2_step(32);
}

TEST(Prune, CompareStrategiesBitwiseEqualPrunedVsUnpruned) {
  // The second case is the Fig. 6 smoke shape: Heat2D 4096^2 x 1024
  // over a 24 x 32 x 256 enumeration (3961 -> 1075 simulator pricings
  // when this test was written).
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const struct {
    ProblemSize p;
    CompareOptions opt;
  } cases[] = {
      {kSmall2D, CompareOptions{}
                     .with_enumeration(small_space())
                     .with_exhaustive_cap(0)  // visit everything
                     .with_baseline_count(24)},
      {{.dim = 2, .S = {4096, 4096, 0}, .T = 1024},
       CompareOptions{}
           .with_enumeration(EnumOptions{}
                                 .with_tT_max(24)
                                 .with_tS1_max(32)
                                 .with_tS1_step(4)
                                 .with_tS2_max(256))
           .with_exhaustive_cap(150)
           .with_baseline_count(40)},
  };
  for (const auto& c : cases) {
    const TuningContext ctx =
        TuningContext::with_inputs(gpusim::gtx980(), def, c.p, in);
    Session exact(ctx, SessionOptions{}.with_jobs(1).with_prune(false));
    const StrategyComparison reference = exact.compare_strategies(c.opt);
    const SweepStats exact_st = exact.stats();
    EXPECT_EQ(exact_st.points_pruned, 0u);

    for (const int jobs : {1, 2, 4}) {
      const std::string where =
          c.p.to_string() + " jobs=" + std::to_string(jobs);
      Session pruned(ctx, SessionOptions{}.with_jobs(jobs));  // prune on
      const StrategyComparison cmp = pruned.compare_strategies(c.opt);
      EXPECT_EQ(cmp, reference) << where;

      // The pruning is real: at least half the simulator work was
      // skipped, and every request is accounted for exactly once —
      // measured/hit (machine_points) or pruned (points_pruned).
      const SweepStats st = pruned.stats();
      EXPECT_GE(exact_st.machine_points, 2 * st.machine_points)
          << where << ": " << exact_st.machine_points << " -> "
          << st.machine_points;
      EXPECT_EQ(st.machine_points + st.points_pruned, exact_st.machine_points)
          << where;
    }
  }
}

TEST(Prune, BestOverThreadsManyEqualsTheScalarOracleAtJobs1And3) {
  // Per-tile bests are outputs (fig5 rows), so no tile may be pruned
  // against another: at any job count every slot is its tile's best
  // point in the serial scalar fold.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const std::vector<hhc::TileSizes> tiles =
      enumerate_feasible(2, in.hw, small_space());
  ASSERT_GT(tiles.size(), 10u);
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in);

  std::vector<EvaluatedPoint> want;
  for (const hhc::TileSizes& ts : tiles) {
    want.push_back(test::scalar_best(ctx, {&ts, 1}));
  }
  for (const int jobs : {1, 3}) {
    Session session(ctx, SessionOptions{}.with_jobs(jobs));  // prune on
    const std::vector<EvaluatedPoint> got =
        session.best_over_threads_many(tiles);
    ASSERT_EQ(got.size(), want.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "jobs=" << jobs << " tile " << i;
    }
  }
}

TEST(Prune, IncumbentIsAMonotoneAtomicMin) {
  Incumbent inc;
  EXPECT_EQ(inc.load(), std::numeric_limits<double>::infinity());
  inc.offer(2.0);
  EXPECT_EQ(inc.load(), 2.0);
  inc.offer(5.0);  // worse: ignored
  EXPECT_EQ(inc.load(), 2.0);
  inc.offer(1.5);
  EXPECT_EQ(inc.load(), 1.5);
  inc.offer(std::numeric_limits<double>::infinity());
  EXPECT_EQ(inc.load(), 1.5);
}

TEST(Prune, SweepDeltaRejectedAsSL313) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const std::vector<hhc::TileSizes> space =
      enumerate_feasible(2, in.hw, small_space());

  for (const double bad :
       {-0.1, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    Session session(
        TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in),
        SessionOptions{}.with_jobs(1));
    try {
      session.sweep_model(space, bad);
      FAIL() << "Session::sweep_model accepted delta " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SL313"), std::string::npos);
    }
    // The engine form collects instead of throwing.
    analysis::DiagnosticEngine eng;
    validate_sweep_delta(bad, eng);
    EXPECT_TRUE(eng.has_code(analysis::Code::kSweepDelta));
  }
  // A zero delta (argmin only) is legal.
  Session session(
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in),
      SessionOptions{}.with_jobs(1));
  EXPECT_NO_THROW(session.sweep_model(space, 0.0));
}

}  // namespace
}  // namespace repro::tuner
