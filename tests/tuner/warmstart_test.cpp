// Warm-start admissibility: a seeded Session::best_tile sweep must
// return the bitwise-identical winner of the cold, prune-off sweep —
// for any seed list (good, adversarial, or out-of-space) and any job
// count — because a seed is only admitted after
// being re-priced in-space, where it participates in the same final
// reduction. Also pins the SL315 incumbent-seed validation at the
// sweep entry points.
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

struct WarmCase {
  std::string name;
  StencilKind kind;
  ProblemSize p;
  EnumOptions space;
};

std::vector<WarmCase> warm_cases() {
  const EnumOptions s1 = EnumOptions{}
                             .with_tT_max(8)
                             .with_tT_step(2)
                             .with_tS1_max(96)
                             .with_tS1_step(24);
  const EnumOptions s2 = EnumOptions{}
                             .with_tT_max(8)
                             .with_tT_step(2)
                             .with_tS1_max(16)
                             .with_tS1_step(4)
                             .with_tS2_max(128)
                             .with_tS2_step(32);
  const EnumOptions s3 = EnumOptions{}
                             .with_tT_max(4)
                             .with_tT_step(2)
                             .with_tS1_max(8)
                             .with_tS1_step(4)
                             .with_tS2_max(16)
                             .with_tS2_step(8)
                             .with_tS3_max(32)
                             .with_tS3_step(16);
  return {
      // The parity suite's shapes, shrunk to sweep-size problems.
      {"1d_clipped", StencilKind::kJacobi1D,
       {.dim = 1, .S = {10000, 0, 0}, .T = 120}, s1},
      {"1d_radius2", StencilKind::kGauss1D,
       {.dim = 1, .S = {8192, 0, 0}, .T = 64}, s1},
      {"2d_interior", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 64}, s2},
      {"2d_clipped", StencilKind::kGradient2D,
       {.dim = 2, .S = {1000, 1000, 0}, .T = 100}, s2},
      {"2d_radius2", StencilKind::kWideStar2D,
       {.dim = 2, .S = {512, 512, 0}, .T = 64}, s2},
      {"3d_clipped", StencilKind::kJacobi3D,
       {.dim = 3, .S = {100, 100, 100}, .T = 30}, s3},
  };
}

// The seed every lookup should produce: the winner itself (tightest
// admissible incumbent), plus adversarial company — a point outside
// the tile list, and one with a thread shape no GPU sweep visits.
std::vector<WarmSeed> seeds_for(const EvaluatedPoint& best) {
  return {
      {best.dp.ts, best.dp.thr, best.dp.var},
      {hhc::TileSizes{.tT = 2, .tS1 = 3, .tS2 = 5, .tS3 = 7},
       best.dp.thr,
       best.dp.var},
      {best.dp.ts, hhc::ThreadConfig{.n1 = 7, .n2 = 3, .n3 = 1},
       best.dp.var},
  };
}

TEST(Warmstart, SeededBestTileBitwiseEqualAcrossPruneBatchJobs) {
  for (const WarmCase& c : warm_cases()) {
    const auto& def = get_stencil(c.kind);
    const model::ModelInputs in =
        gpusim::calibrate_model(gpusim::gtx980(), def);
    std::vector<hhc::TileSizes> tiles =
        enumerate_feasible(c.p.dim, in.hw, c.space, def.radius);
    ASSERT_GE(tiles.size(), 4u) << c.name;
    if (tiles.size() > 18) tiles.resize(18);

    // Cold, prune-off, unseeded: the ground-truth reduction, itself
    // equal to the serial scalar fold.
    const TuningContext ctx =
        TuningContext::with_inputs(gpusim::gtx980(), def, c.p, in);
    Session exact(ctx, SessionOptions{}.with_jobs(2).with_prune(false));
    const EvaluatedPoint ref = exact.best_tile(tiles);
    ASSERT_TRUE(ref.feasible) << c.name;
    EXPECT_EQ(ref, test::scalar_best(ctx, tiles)) << c.name;
    const std::vector<WarmSeed> seeds = seeds_for(ref);

    for (const int jobs : {1, 2, 4}) {
      Session warm(ctx, SessionOptions{}.with_jobs(jobs));
      const EvaluatedPoint got = warm.best_tile(tiles, {}, seeds);
      EXPECT_EQ(got, ref) << c.name << " jobs=" << jobs;
      const SweepStats st = warm.stats();
      EXPECT_EQ(st.seeds_offered, seeds.size()) << c.name << " jobs=" << jobs;
      // Exactly one of the three seeds is in-space.
      EXPECT_EQ(st.seeds_admitted, 1u) << c.name << " jobs=" << jobs;
    }
  }
}

TEST(Warmstart, OutOfSpaceSeedsAreIgnoredEntirely) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 64};
  const EnumOptions space = EnumOptions{}
                                .with_tT_max(8)
                                .with_tT_step(2)
                                .with_tS1_max(16)
                                .with_tS1_step(4)
                                .with_tS2_max(128)
                                .with_tS2_step(32);
  const std::vector<hhc::TileSizes> tiles =
      enumerate_feasible(2, in.hw, space, def.radius);

  Session unseeded(TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
                   SessionOptions{}.with_jobs(1));
  const EvaluatedPoint ref = unseeded.best_tile(tiles);

  // A foreign point much "better" than anything in the space: were it
  // admitted without re-pricing, it would prune the true winner away.
  const std::vector<WarmSeed> foreign = {
      {hhc::TileSizes{.tT = 2, .tS1 = 3, .tS2 = 5, .tS3 = 7},
       hhc::ThreadConfig{.n1 = 32, .n2 = 4, .n3 = 1},
       stencil::KernelVariant{}},
  };
  Session seeded(TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
                 SessionOptions{}.with_jobs(1));
  const EvaluatedPoint got = seeded.best_tile(tiles, {}, foreign);
  EXPECT_EQ(got, ref);
  const SweepStats st = seeded.stats();
  EXPECT_EQ(st.seeds_offered, 1u);
  EXPECT_EQ(st.seeds_admitted, 0u);
  // Ignored means ignored: no extra simulator work either.
  EXPECT_EQ(st.machine_points, unseeded.stats().machine_points);
}

TEST(Warmstart, NearMissSeedPrunesStrictlyMore) {
  // The transfer scenario itself: tune an adjacent problem, seed this
  // one with its winner — same answer, more pruning from visit one,
  // and a larger pruned fraction of the points the sweep visits. The
  // second case is Fig. 6 scale: Heat2D 4096^2 x 1024 over a
  // 24 x 32 x 256 enumeration, seeded from a 3584^2 donor.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const struct {
    EnumOptions space;
    ProblemSize donor;
    ProblemSize p;
  } cases[] = {
      {EnumOptions{}
           .with_tT_max(16)
           .with_tT_step(2)
           .with_tS1_max(24)
           .with_tS1_step(4)
           .with_tS2_max(128)
           .with_tS2_step(32),
       {.dim = 2, .S = {1792, 1792, 0}, .T = 256},
       {.dim = 2, .S = {2048, 2048, 0}, .T = 256}},
      {EnumOptions{}
           .with_tT_max(24)
           .with_tS1_max(32)
           .with_tS1_step(4)
           .with_tS2_max(256),
       {.dim = 2, .S = {3584, 3584, 0}, .T = 1024},
       {.dim = 2, .S = {4096, 4096, 0}, .T = 1024}},
  };
  const auto pruned_fraction = [](const SweepStats& st) {
    return static_cast<double>(st.points_pruned) /
           static_cast<double>(st.machine_points + st.points_pruned);
  };
  for (const auto& c : cases) {
    const std::string name = c.p.to_string();
    const std::vector<hhc::TileSizes> tiles =
        enumerate_feasible(2, in.hw, c.space, def.radius);
    Session donor(TuningContext::with_inputs(gpusim::gtx980(), def, c.donor,
                                             in),
                  SessionOptions{}.with_jobs(1));
    const EvaluatedPoint donor_best = donor.best_tile(tiles);
    ASSERT_TRUE(donor_best.feasible) << name;

    const TuningContext ctx =
        TuningContext::with_inputs(gpusim::gtx980(), def, c.p, in);
    Session cold(ctx, SessionOptions{}.with_jobs(1));
    const EvaluatedPoint cold_best = cold.best_tile(tiles);
    const std::vector<WarmSeed> seeds = {
        {donor_best.dp.ts, donor_best.dp.thr, donor_best.dp.var}};
    Session warm(ctx, SessionOptions{}.with_jobs(1));
    const EvaluatedPoint warm_best = warm.best_tile(tiles, {}, seeds);

    EXPECT_EQ(warm_best, cold_best) << name;
    EXPECT_EQ(warm.stats().seeds_admitted, 1u) << name;
    EXPECT_GT(warm.stats().points_pruned, cold.stats().points_pruned) << name;
    EXPECT_GT(pruned_fraction(warm.stats()), pruned_fraction(cold.stats()))
        << name << ": cold " << cold.stats().points_pruned << "/"
        << cold.stats().machine_points << ", warm "
        << warm.stats().points_pruned << "/" << warm.stats().machine_points;
  }
}

TEST(Warmstart, IncumbentSeedRejectedAsSL315) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 64};
  const std::vector<hhc::TileSizes> tiles = enumerate_feasible(
      2, in.hw,
      EnumOptions{}.with_tT_max(4).with_tS1_max(8).with_tS2_max(64),
      def.radius);

  for (const double bad :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::infinity()}) {
    Session session(TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
                    SessionOptions{}.with_jobs(1));
    try {
      session.best_tile(tiles, {}, {}, bad);
      FAIL() << "best_tile accepted incumbent seed " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SL315"), std::string::npos);
    }
    // The engine form collects instead of throwing.
    analysis::DiagnosticEngine eng;
    validate_incumbent_seed(bad, eng);
    EXPECT_TRUE(eng.has_code(analysis::Code::kIncumbentSeed));
  }

  // +inf (no seed) and 0 (prune everything but cache hits) are legal.
  Session fine(TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
               SessionOptions{}.with_jobs(1));
  EXPECT_NO_THROW(fine.best_tile(
      tiles, {}, {}, std::numeric_limits<double>::infinity()));
  EXPECT_NO_THROW(fine.best_tile(tiles, {}, {}, 0.0));
}

}  // namespace
}  // namespace repro::tuner
