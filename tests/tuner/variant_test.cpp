// The kernel-variant search axis through the Session's pricing path:
// sweeping the variant-extended space must equal the serial scalar
// fold and be byte-identical across pruning on vs off and any job
// count (mirroring prune_test.cpp's invariant), best_tile over one
// tile must reproduce the serial variant-major fold, the Session must
// keep its counter pins (one profile build per tile, incremental
// steps for inner-extent neighbours), and the SL312/SL314
// diagnostics must fire on invalid or register-hungry variants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/legality.hpp"
#include "gpusim/microbench.hpp"
#include "gpusim/registers.hpp"
#include "support/scalar_oracle.hpp"
#include "tuner/session.hpp"

namespace repro::tuner {
namespace {

using stencil::get_stencil;
using stencil::KernelVariant;
using stencil::ProblemSize;
using stencil::StencilKind;

const ProblemSize kProblem{.dim = 2, .S = {1024, 1024, 0}, .T = 128};

std::vector<KernelVariant> all_variants() {
  const auto span = stencil::all_kernel_variants();
  return {span.begin(), span.end()};
}

EnumOptions variant_space() {
  return EnumOptions{}
      .with_tT_max(8)
      .with_tT_step(2)
      .with_tS1_max(16)
      .with_tS1_step(4)
      .with_tS2_max(96)
      .with_tS2_step(32)
      .with_variants(all_variants());
}

// The headline invariant (mirrors Prune.CompareStrategies...): over
// the variant-extended space, compare_strategies is bitwise-equal
// across pruning on vs off and job counts. The reference is the
// unpruned serial sweep, itself pinned pass by pass against the
// serial scalar fold (tests/support/scalar_oracle.hpp).
TEST(Variant, CompareStrategiesBitwiseEqualAcrossBatchPruneJobs) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const CompareOptions opt = CompareOptions{}
                                 .with_enumeration(variant_space())
                                 .with_exhaustive_cap(0)  // visit everything
                                 .with_baseline_count(12);
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, kProblem, in);

  Session exact(ctx, SessionOptions{}.with_jobs(1).with_prune(false));
  const StrategyComparison reference = exact.compare_strategies(opt);
  const SweepStats exact_st = exact.stats();
  EXPECT_EQ(exact_st.points_pruned, 0u);
  EXPECT_TRUE(reference.exhaustive.feasible);

  // Every pass against the scalar fold over the same tiles. With the
  // cap at 0 the exhaustive pass visits the whole space.
  const std::vector<KernelVariant> vars = all_variants();
  const std::vector<hhc::TileSizes> space =
      enumerate_feasible(2, in.hw, opt.enumeration, def.radius);
  const ModelSweep sweep = exact.sweep_model(space, opt.delta);
  EXPECT_EQ(reference.hhc_default,
            test::scalar_point(ctx, {hhc_default_tiles(2),
                                     hhc::ThreadConfig{32, 2, 1}}));
  EXPECT_EQ(reference.talg_min,
            test::scalar_best(ctx, {&sweep.argmin, 1}, vars));
  EXPECT_EQ(reference.within10_best,
            test::scalar_best(ctx, sweep.candidates, vars));
  EXPECT_EQ(reference.baseline_best,
            test::scalar_best(ctx,
                              baseline_tile_set(2, in.hw, opt.baseline_count,
                                                opt.enumeration, def.radius),
                              vars));
  EXPECT_EQ(reference.exhaustive, test::scalar_best(ctx, space, vars));

  struct Combo {
    bool prune;
    int jobs;
  };
  for (const Combo c : {Combo{false, 4}, Combo{true, 1}, Combo{true, 2},
                        Combo{true, 4}}) {
    Session s(ctx, SessionOptions{}.with_jobs(c.jobs).with_prune(c.prune));
    const StrategyComparison cmp = s.compare_strategies(opt);
    const std::string what = std::string("prune=") +
                             (c.prune ? "on" : "off") +
                             " jobs=" + std::to_string(c.jobs);
    EXPECT_EQ(cmp, reference) << what;

    // Every requested point is accounted for exactly once: measured
    // or cache-hit (machine_points) or pruned (points_pruned).
    const SweepStats st = s.stats();
    EXPECT_EQ(st.machine_points + st.points_pruned, exact_st.machine_points)
        << what;
    if (c.prune) {
      EXPECT_GT(st.points_pruned, 0u) << what;
    } else {
      EXPECT_EQ(st.points_pruned, 0u) << what;
    }
  }
}

// best_tile over one tile == the serial variant-major fold over scalar
// single-point measurements (variants in span order, thread configs
// innermost, first strictly-better point wins).
TEST(Variant, BestOverVariantsMatchesManualScalarFold) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const std::vector<KernelVariant> vars = all_variants();
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, kProblem, in);

  Session session(ctx, SessionOptions{}.with_jobs(1));
  const EvaluatedPoint got = session.best_tile({&ts, 1}, vars);
  const EvaluatedPoint want = test::scalar_best(ctx, {&ts, 1}, vars);
  ASSERT_TRUE(want.feasible);
  EXPECT_EQ(got, want);

  // The variant axis can only help: its best is at least as good as
  // the default-variant thread sweep over the same tile.
  const EvaluatedPoint default_best = test::scalar_best(ctx, {&ts, 1});
  ASSERT_TRUE(default_best.feasible);
  EXPECT_LE(got.texec, default_best.texec);
}

// An empty variant span collapses best_tile over one tile to
// best_over_threads exactly.
TEST(Variant, EmptyVariantSpanEqualsBestOverThreads) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const hhc::TileSizes ts{.tT = 6, .tS1 = 12, .tS2 = 96, .tS3 = 1};

  Session a(TuningContext::with_inputs(gpusim::gtx980(), def, kProblem, in),
            SessionOptions{}.with_jobs(1));
  Session b(TuningContext::with_inputs(gpusim::gtx980(), def, kProblem, in),
            SessionOptions{}.with_jobs(1));
  EXPECT_EQ(a.best_tile({&ts, 1}, {}), b.best_over_threads(ts));
}

// The memo cache is variant-keyed: the same (tile, threads) under two
// variants is two distinct measurements, and repeating one is a hit.
TEST(Variant, MemoCacheKeysOnVariant) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  Session s(TuningContext::with_inputs(gpusim::gtx980(), def, kProblem, in),
            SessionOptions{}.with_jobs(1));
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};

  const EvaluatedPoint d = s.evaluate_point({ts, thr});
  const EvaluatedPoint u2 =
      s.evaluate_point({ts, thr, KernelVariant{.unroll = 2}});
  EXPECT_EQ(s.cache_size(), 2u);
  EXPECT_NE(d.texec, u2.texec);
  EXPECT_EQ(s.evaluate_point({ts, thr, KernelVariant{.unroll = 2}}), u2);
  const SweepStats st = s.stats();
  EXPECT_EQ(st.machine_points, 3u);
  EXPECT_EQ(st.cache_hits, 1u);
}

// The pricing path keeps the session's counter pins: one profile
// build per tile (stage one, with histograms once the tile is priced)
// serving the whole thread sweep, repeats served from the
// tile's record, and an inner-extent neighbour tile rebuilt
// incrementally (profile_steps) instead of from scratch.
TEST(Variant, BatchPathKeepsCounterPins) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  Session s(TuningContext::with_inputs(gpusim::gtx980(), def, kProblem, in),
            SessionOptions{}.with_jobs(1).with_prune(false));
  const std::size_t nthr =
      device_thread_configs(gpusim::gtx980(), kProblem.dim).size();

  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  s.best_over_threads(ts);
  SweepStats st = s.stats();
  EXPECT_EQ(st.machine_points, nthr);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.profile_steps, 0u);
  EXPECT_EQ(st.profile_hits, 0u);
  EXPECT_EQ(st.histogram_builds, 1u);

  s.best_over_threads(ts);  // all memo hits, no new profile work
  st = s.stats();
  EXPECT_EQ(st.machine_points, 2 * nthr);
  EXPECT_EQ(st.cache_hits, nthr);
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.profile_hits, 0u);
  EXPECT_EQ(st.histogram_builds, 1u);

  // Same (tT, tS1), larger tS2: incremental rebuild, not a walk.
  s.best_over_threads({.tT = 8, .tS1 = 16, .tS2 = 96, .tS3 = 1});
  st = s.stats();
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.profile_steps, 1u);
  EXPECT_EQ(st.histogram_builds, 2u);  // the step is priced too

  // Different tT: the schedule changes, so a full build is required.
  s.best_over_threads({.tT = 4, .tS1 = 16, .tS2 = 64, .tS3 = 1});
  st = s.stats();
  EXPECT_EQ(st.profile_builds, 2u);
  EXPECT_EQ(st.profile_steps, 1u);
  EXPECT_EQ(st.histogram_builds, 3u);
}

// SL314 (error): check_tiling rejects an unroll factor the code
// generator cannot emit.
TEST(Variant, CheckTilingRejectsInvalidUnroll) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  analysis::TilingCheckInput tci;
  tci.dim = 2;
  tci.ts = {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  tci.hw = in.hw;
  tci.def = &def;
  tci.thr = hhc::ThreadConfig{.n1 = 32, .n2 = 8, .n3 = 1};
  tci.variant = KernelVariant{.unroll = 3};

  analysis::DiagnosticEngine eng;
  EXPECT_FALSE(analysis::check_tiling(tci, eng));
  EXPECT_TRUE(eng.has_code(analysis::Code::kVariantResource));

  // The default variant is variant-blind: no SL314 either way.
  tci.variant = KernelVariant{};
  analysis::DiagnosticEngine clean;
  EXPECT_TRUE(analysis::check_tiling(tci, clean));
  EXPECT_FALSE(clean.has_code(analysis::Code::kVariantResource));
}

// SL314 (warning): fires exactly when the variant's register estimate
// overflows a register file the default variant's estimate fits.
TEST(Variant, CheckTilingWarnsOnVariantRegisterOverflow) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 32, .n3 = 1};
  const KernelVariant var{.unroll = 4, .staging = stencil::Staging::kRegister};

  const int total = thr.total();
  const std::int64_t demand =
      static_cast<std::int64_t>(gpusim::estimate_regs_per_thread(def, ts,
                                                                 total)) *
      total;
  const std::int64_t vdemand =
      static_cast<std::int64_t>(
          gpusim::estimate_regs_per_thread(def, ts, total, var)) *
      total;
  ASSERT_GT(vdemand, demand);

  analysis::TilingCheckInput tci;
  tci.dim = 2;
  tci.ts = ts;
  tci.hw = in.hw;
  tci.hw.regs_per_sm = (demand + vdemand) / 2;  // default fits, variant not
  tci.def = &def;
  tci.thr = thr;
  tci.variant = var;

  analysis::DiagnosticEngine eng;
  EXPECT_TRUE(analysis::check_tiling(tci, eng));  // warning, not error
  EXPECT_TRUE(eng.has_code(analysis::Code::kVariantResource));
  EXPECT_EQ(eng.count(analysis::Severity::kError), 0u);

  // With the real register file both estimates fit: no SL314.
  tci.hw = in.hw;
  analysis::DiagnosticEngine clean;
  EXPECT_TRUE(analysis::check_tiling(tci, clean));
  EXPECT_FALSE(clean.has_code(analysis::Code::kVariantResource));
}

// SL312: EnumOptions.variants with an unroll the generator cannot
// emit fails validation; the full legal set passes untouched.
TEST(Variant, EnumOptionsValidateRejectsInvalidUnroll) {
  analysis::DiagnosticEngine eng;
  EnumOptions{}
      .with_variants({KernelVariant{.unroll = 3}})
      .validate(eng);
  EXPECT_TRUE(eng.has_errors());
  EXPECT_TRUE(eng.has_code(analysis::Code::kOptionRange));

  analysis::DiagnosticEngine clean;
  variant_space().validate(clean);
  EXPECT_TRUE(clean.empty());
}

}  // namespace
}  // namespace repro::tuner
