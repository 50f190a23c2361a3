#include "tuner/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "gpusim/microbench.hpp"
#include "support/scalar_oracle.hpp"
#include "support/temp_dir.hpp"

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

TEST(TuningContext, CalibrateFillsModelInputs) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const TuningContext ctx =
      TuningContext::calibrate(gpusim::gtx980(), def, kSmall2D);
  EXPECT_GT(ctx.inputs.c_iter, 0.0);
  EXPECT_GT(ctx.inputs.hw.max_shared_words_per_block, 0);
  EXPECT_EQ(ctx.problem, kSmall2D);
  EXPECT_EQ(ctx.def.name, def.name);
  // with_inputs must carry the given calibration through unchanged.
  const TuningContext ctx2 =
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, ctx.inputs);
  EXPECT_EQ(ctx2.inputs.c_iter, ctx.inputs.c_iter);
}

// The Session against serial folds written out in test code: the
// model sweep against a plain model_talg_or_inf loop, machine
// evaluation against the scalar oracle (tests/support).
TEST(Session, MatchesFreeFunctions) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in);
  Session session(ctx, SessionOptions{}.with_jobs(2));

  const auto space = enumerate_feasible(2, in.hw, small_space());
  std::vector<double> talg;
  double talg_min = std::numeric_limits<double>::infinity();
  hhc::TileSizes argmin;
  for (const hhc::TileSizes& ts : space) {
    talg.push_back(model_talg_or_inf(in, kSmall2D, ts));
    if (talg.back() < talg_min) {
      talg_min = talg.back();
      argmin = ts;
    }
  }
  std::vector<hhc::TileSizes> candidates;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (talg[i] <= talg_min * (1.0 + 0.10)) candidates.push_back(space[i]);
  }
  const ModelSweep s_sweep = session.sweep_model(space, 0.10);
  EXPECT_EQ(s_sweep.talg_min, talg_min);
  EXPECT_EQ(s_sweep.argmin, argmin);
  EXPECT_EQ(s_sweep.candidates, candidates);
  EXPECT_EQ(s_sweep.space_size, space.size());
  // The sweep carries each candidate's Talg value, bit for bit.
  ASSERT_EQ(s_sweep.candidate_talg.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(s_sweep.candidate_talg[i],
              model_talg_or_inf(in, kSmall2D, candidates[i]));
  }

  const DataPoint dp{{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1},
                     {.n1 = 32, .n2 = 8, .n3 = 1}};
  EXPECT_EQ(session.evaluate_point(dp), test::scalar_point(ctx, dp));

  const hhc::TileSizes ts{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1};
  EXPECT_EQ(session.best_over_threads(ts), test::scalar_best(ctx, {&ts, 1}));
  EXPECT_EQ(session.best_tile(candidates),
            test::scalar_best(ctx, candidates));
  // The sweep form visits in the sweep's own Talg order; a fresh
  // session (no record to serve from) returns the same point.
  Session fresh(ctx, SessionOptions{}.with_jobs(2));
  EXPECT_EQ(fresh.best_tile(s_sweep), test::scalar_best(ctx, candidates));
}

// A single GPU point: Session::evaluate_point must
// equal the scalar oracle field for field — including the jitter key
// (texec depends on it bit for bit) and Talg — on 1D, 2D and 3D
// stencils, every kernel variant and thread configs the machine
// rejects.
TEST(Session, EvaluatePointIsABatchOfOneOfTheScalarPath) {
  struct Case {
    StencilKind kind;
    ProblemSize p;
    hhc::TileSizes ts;
  };
  const Case cases[] = {
      {StencilKind::kJacobi1D, {.dim = 1, .S = {10000, 0, 0}, .T = 500},
       {.tT = 6, .tS1 = 48, .tS2 = 1, .tS3 = 1}},
      {StencilKind::kHeat2D, kSmall2D,
       {.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1}},
      {StencilKind::kHeat3D, {.dim = 3, .S = {128, 128, 128}, .T = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 16, .tS3 = 32}},
  };
  for (const Case& c : cases) {
    const auto& def = get_stencil(c.kind);
    const TuningContext ctx = TuningContext::calibrate(gpusim::gtx980(), def,
                                                       c.p);
    Session session(ctx, SessionOptions{}.with_jobs(1));
    std::vector<hhc::ThreadConfig> threads =
        device_thread_configs(ctx.dev, c.p.dim);
    threads.push_back({.n1 = 2048, .n2 = 1, .n3 = 1});  // > 1024 / block
    bool saw_infeasible = false;
    for (const stencil::KernelVariant& var : stencil::all_kernel_variants()) {
      for (const hhc::ThreadConfig& thr : threads) {
        const DataPoint dp{c.ts, thr, var};
        const EvaluatedPoint got = session.evaluate_point(dp);
        const EvaluatedPoint want = test::scalar_point(ctx, dp);
        const std::string what = def.name + " " + var.to_string() + " " +
                                 std::to_string(thr.total());
        EXPECT_EQ(got.dp, dp) << what;
        EXPECT_EQ(got.talg, want.talg) << what;
        EXPECT_EQ(got.texec, want.texec) << what;
        EXPECT_EQ(got.gflops, want.gflops) << what;
        EXPECT_EQ(got.feasible, want.feasible) << what;
        saw_infeasible = saw_infeasible || !want.feasible;
      }
    }
    EXPECT_TRUE(saw_infeasible) << def.name;
  }
}

TEST(Session, AuditSurfacesFindingsWithoutPerturbingTuning) {
  // The observational-purity pin: audit() reads the session context
  // and returns diagnostics, but every tuning result stays identical
  // whether the audit ran or not — the findings are advisory only.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const auto space = enumerate_feasible(2, in.hw, small_space());

  Session plain(TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D,
                                           in));
  const ModelSweep before = plain.sweep_model(space, 0.10);

  Session audited(TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D,
                                             in));
  const auto findings = audited.audit(
      hhc::TileSizes{.tT = 2, .tS1 = 4, .tS2 = 32, .tS3 = 1},
      hhc::ThreadConfig{.n1 = 1024, .n2 = 1, .n3 = 1});
  // The chosen configuration predicts idle threads (SL512).
  bool found = false;
  for (const auto& d : findings) {
    found = found || d.code == analysis::Code::kAuditIdleThreads;
  }
  EXPECT_TRUE(found);

  const ModelSweep after = audited.sweep_model(space, 0.10);
  EXPECT_EQ(after.talg_min, before.talg_min);
  EXPECT_EQ(after.argmin, before.argmin);
  EXPECT_EQ(after.candidates, before.candidates);

  // Audit twice: same findings, still no effect.
  const auto findings2 = audited.audit(
      hhc::TileSizes{.tT = 2, .tS1 = 4, .tS2 = 32, .tS3 = 1},
      hhc::ThreadConfig{.n1 = 1024, .n2 = 1, .n3 = 1});
  EXPECT_EQ(findings, findings2);
  EXPECT_EQ(audited.evaluate_point({{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1},
                                    {.n1 = 32, .n2 = 8, .n3 = 1}}),
            plain.evaluate_point({{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1},
                                  {.n1 = 32, .n2 = 8, .n3 = 1}}));
}

TEST(Session, CompareStrategiesIsDeterministicAcrossJobCounts) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  const CompareOptions opt = CompareOptions{}
                                 .with_enumeration(small_space())
                                 .with_exhaustive_cap(60)
                                 .with_baseline_count(24);

  Session reference(
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in),
      SessionOptions{}.with_jobs(1));
  const StrategyComparison serial = reference.compare_strategies(opt);
  for (const int jobs : {2, 4}) {
    Session session(
        TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in),
        SessionOptions{}.with_jobs(jobs));
    const StrategyComparison cmp = session.compare_strategies(opt);
    EXPECT_EQ(cmp, serial) << "jobs=" << jobs;
  }
}

TEST(Session, EvaluatePointsPreservesInputOrder) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  Session session(gpusim::gtx980(), def, kSmall2D,
                  SessionOptions{}.with_jobs(3));
  std::vector<DataPoint> dps;
  for (const auto& thr : default_thread_configs(2)) {
    dps.push_back({{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1}, thr});
  }
  const auto eps = session.evaluate_points(dps);
  ASSERT_EQ(eps.size(), dps.size());
  for (std::size_t i = 0; i < dps.size(); ++i) {
    EXPECT_EQ(eps[i].dp, dps[i]) << "slot " << i;
    EXPECT_EQ(eps[i], session.evaluate_point(dps[i]));
  }
}

TEST(Session, MemoCacheServesRepeatedMeasurements) {
  // Pins the memo-cache contract (every request measures or hits);
  // pruning off so no request is skipped. prune_test.cpp covers the
  // counter semantics with pruning on.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  Session session(gpusim::gtx980(), def, kSmall2D,
                  SessionOptions{}.with_jobs(2).with_prune(false));
  const hhc::TileSizes ts{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1};

  const EvaluatedPoint first = session.best_over_threads(ts);
  const SweepStats after_first = session.stats();
  EXPECT_EQ(after_first.cache_hits, 0u);
  const std::size_t nconfigs = default_thread_configs(2).size();
  EXPECT_EQ(after_first.machine_points, nconfigs);
  EXPECT_EQ(session.cache_size(), nconfigs);

  // The second sweep over the same tile size is pure cache hits — and
  // byte-identical.
  const EvaluatedPoint second = session.best_over_threads(ts);
  EXPECT_EQ(second, first);
  const SweepStats after_second = session.stats();
  EXPECT_EQ(after_second.machine_points, 2 * nconfigs);
  EXPECT_EQ(after_second.cache_hits, nconfigs);
  EXPECT_EQ(session.cache_size(), nconfigs);

  session.clear_cache();
  EXPECT_EQ(session.cache_size(), 0u);
}

TEST(Session, ProfileCacheSharesGeometryAcrossThreadConfigs) {
  // Pruning off: the bound evaluation also reads the tile's profile,
  // which would add hits beyond the pipeline's one-build baseline
  // this test pins.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  Session session(gpusim::gtx980(), def, kSmall2D,
                  SessionOptions{}.with_jobs(1).with_prune(false));
  const hhc::TileSizes ts{.tT = 8, .tS1 = 8, .tS2 = 64, .tS3 = 1};

  // One thread sweep: the schedule is walked once and every thread
  // config is priced against that profile.
  session.best_over_threads(ts);
  SweepStats st = session.stats();
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.profile_hits, 0u);
  EXPECT_EQ(st.histogram_builds, 1u);  // priced, so built with histograms

  // New measurements on the same tile (another variant) reuse it.
  const stencil::KernelVariant u2{.unroll = 2};
  session.best_tile({&ts, 1}, {&u2, 1});
  st = session.stats();
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.profile_hits, 1u);
  EXPECT_EQ(st.histogram_builds, 1u);

  // A different tile size is a new profile; repeating it is not.
  const hhc::TileSizes other{.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 1};
  session.best_over_threads(other);
  EXPECT_EQ(session.stats().profile_builds, 2u);
  EXPECT_EQ(session.stats().histogram_builds, 2u);
  session.clear_cache();  // drops profiles too
  session.best_over_threads(ts);
  EXPECT_EQ(session.stats().profile_builds, 3u);
  EXPECT_EQ(session.stats().histogram_builds, 3u);
}

TEST(Session, CompareStrategiesReusesSharedPoints) {
  // The exhaustive pass revisits the baseline and within-10% points;
  // with the memo cache those must be hits, not re-simulations.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  // Pruning off: a pruned within-10% point is never cached, so the
  // exhaustive revisit would not be a guaranteed hit.
  Session session(gpusim::gtx980(), def, kSmall2D,
                  SessionOptions{}.with_jobs(2).with_prune(false));
  const CompareOptions opt = CompareOptions{}
                                 .with_enumeration(small_space())
                                 .with_exhaustive_cap(0)  // visit everything
                                 .with_baseline_count(24);
  const StrategyComparison cmp = session.compare_strategies(opt);
  ASSERT_TRUE(cmp.within10_best.feasible);
  const SweepStats st = session.stats();
  // Every within-10% candidate is re-requested by the uncapped
  // exhaustive pass across all thread configs.
  const std::size_t nconfigs = default_thread_configs(2).size();
  EXPECT_GE(st.cache_hits, cmp.candidates_tried * nconfigs);
  EXPECT_GT(st.machine_points, st.cache_hits);
  EXPECT_GT(st.model_points, 0u);
}

TEST(Session, ExhaustiveCapZeroMeansNoCap) {
  // Regression: exhaustive_cap = 0 must mean "no cap" (stride 1), not
  // a division by zero in the stride computation.
  const auto& def = get_stencil(StencilKind::kHeat2D);
  Session session(gpusim::gtx980(), def, kSmall2D,
                  SessionOptions{}.with_jobs(2));
  const CompareOptions opt = CompareOptions{}
                                 .with_enumeration(small_space())
                                 .with_exhaustive_cap(0)
                                 .with_baseline_count(8);
  const StrategyComparison cmp = session.compare_strategies(opt);
  ASSERT_TRUE(cmp.exhaustive.feasible);
  EXPECT_GT(cmp.space_size, 0u);
  // With the whole space visited, nothing can beat the exhaustive best.
  EXPECT_GE(cmp.exhaustive.gflops, cmp.within10_best.gflops * (1 - 1e-12));
  EXPECT_GE(cmp.exhaustive.gflops, cmp.baseline_best.gflops * (1 - 1e-12));
}

TEST(CompareOptionsValidate, ReportsStructuredErrors) {
  CompareOptions bad = CompareOptions{}
                           .with_delta(-0.5)
                           .with_baseline_count(0);
  bad.enumeration.tS2_step = 0;
  analysis::DiagnosticEngine eng;
  bad.validate(eng);
  EXPECT_TRUE(eng.has_errors());
  EXPECT_TRUE(eng.has_code(analysis::Code::kSweepDelta));   // delta
  EXPECT_TRUE(eng.has_code(analysis::Code::kOptionRange));  // baseline_count
  EXPECT_TRUE(eng.has_code(analysis::Code::kEnumStep));     // tS2_step
  EXPECT_GE(eng.size(), 3u);

  try {
    bad.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // delta is validated first, so SL313 leads the throw.
    EXPECT_NE(std::string(e.what()).find("SL313"), std::string::npos);
  }

  // The defaults validate clean.
  analysis::DiagnosticEngine ok;
  CompareOptions{}.validate(ok);
  EXPECT_TRUE(ok.empty());
  EXPECT_NO_THROW(CompareOptions{}.validate());
}

TEST(SessionOptions, BuildersCompose) {
  const SessionOptions opt = SessionOptions{}.with_jobs(7).with_prune(false);
  EXPECT_EQ(opt.jobs, 7);
  EXPECT_FALSE(opt.prune);
  EXPECT_TRUE(SessionOptions{}.prune);  // pruning defaults on
}

// The bench timer's summary: min, median and median absolute
// deviation of known samples, and round-robin passes of its arms.
TEST(BenchTimer, SummarizesSamplesAndInterleavesArms) {
  const bench::ArmTiming t =
      bench::summarize_samples("a", {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0});
  EXPECT_EQ(t.name, "a");
  EXPECT_EQ(t.samples.size(), 7u);
  EXPECT_EQ(t.min, 1.0);
  EXPECT_EQ(t.median, 3.0);
  // |x - 3| = 0 2 1 2 2 6 1, whose median is 2.
  EXPECT_EQ(t.mad, 2.0);
  // An even count interpolates between the middle pair.
  EXPECT_EQ(bench::summarize_samples("b", {4.0, 1.0, 2.0, 3.0}).median, 2.5);

  std::string order;
  const std::vector<bench::ArmTiming> timed = bench::time_arms(
      {{"x", [&] { order += 'x'; }, 2, [&] { order += '.'; }},
       {"y", [&] { order += 'y'; }}},
      3, 0.0);
  EXPECT_EQ(order, ".xxy.xxy.xxy");
  ASSERT_EQ(timed.size(), 2u);
  EXPECT_EQ(timed[0].name, "x");
  EXPECT_EQ(timed[1].name, "y");
  for (const bench::ArmTiming& a : timed) {
    EXPECT_EQ(a.samples.size(), 3u);
    EXPECT_LE(a.min, a.median);
    EXPECT_GE(a.mad, 0.0);
  }
}

// operator+= sums every field: each gets a distinct value, so a field
// left out of the sum (or summed into the wrong one) shows up.
TEST(SweepStats, PlusEqualsSumsEveryField) {
  SweepStats a;
  a.model_points = 1;
  a.machine_points = 2;
  a.cache_hits = 3;
  a.model_seconds = 4.0;
  a.machine_seconds = 5.0;
  a.profile_builds = 6;
  a.profile_steps = 7;
  a.profile_hits = 8;
  a.histogram_builds = 15;
  a.geometry_seconds = 9.0;
  a.pricing_seconds = 10.0;
  a.points_pruned = 11;
  a.bound_seconds = 12.0;
  a.seeds_offered = 13;
  a.seeds_admitted = 14;
  SweepStats sum = a;
  sum += a;
  EXPECT_EQ(sum.model_points, 2u);
  EXPECT_EQ(sum.machine_points, 4u);
  EXPECT_EQ(sum.cache_hits, 6u);
  EXPECT_EQ(sum.model_seconds, 8.0);
  EXPECT_EQ(sum.machine_seconds, 10.0);
  EXPECT_EQ(sum.profile_builds, 12u);
  EXPECT_EQ(sum.profile_steps, 14u);
  EXPECT_EQ(sum.profile_hits, 16u);
  EXPECT_EQ(sum.histogram_builds, 30u);
  EXPECT_EQ(sum.geometry_seconds, 18.0);
  EXPECT_EQ(sum.pricing_seconds, 20.0);
  EXPECT_EQ(sum.points_pruned, 22u);
  EXPECT_EQ(sum.bound_seconds, 24.0);
  EXPECT_EQ(sum.seeds_offered, 26u);
  EXPECT_EQ(sum.seeds_admitted, 28u);
  // The empty stats are the identity.
  SweepStats id = a;
  id += SweepStats{};
  EXPECT_EQ(id.seeds_admitted, a.seeds_admitted);
  EXPECT_EQ(id.bound_seconds, a.bound_seconds);

  // --stats-json writes every field exactly once, beside "jobs".
  const std::filesystem::path dir = test::unique_temp_dir("repro_stats");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "stats.json").string();
  ASSERT_TRUE(bench::write_stats_json(path, a, 3));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove_all(dir);
  const std::optional<json::Value> doc = json::parse(text.str());
  ASSERT_TRUE(doc.has_value() && doc->is_object());
  const std::vector<std::pair<std::string, double>> want = {
      {"jobs", 3},
      {"model_points", 1},
      {"machine_points", 2},
      {"cache_hits", 3},
      {"model_seconds", 4},
      {"machine_seconds", 5},
      {"profile_builds", 6},
      {"profile_steps", 7},
      {"profile_hits", 8},
      {"histogram_builds", 15},
      {"geometry_seconds", 9},
      {"pricing_seconds", 10},
      {"points_pruned", 11},
      {"bound_seconds", 12},
      {"seeds_offered", 13},
      {"seeds_admitted", 14}};
  ASSERT_EQ(doc->members().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(doc->members()[i].first, want[i].first);
    EXPECT_EQ(doc->members()[i].second.as_double(), want[i].second)
        << want[i].first;
  }
}

TEST(Session, AnnealMatchesFreeFunction) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const model::ModelInputs in = gpusim::calibrate_model(gpusim::gtx980(), def);
  Session session(
      TuningContext::with_inputs(gpusim::gtx980(), def, kSmall2D, in));
  const SolverResult a = session.anneal_talg(small_space(), 7, 120);
  const SolverResult b = anneal_talg(in, kSmall2D, small_space(), 7, 120);
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.talg, b.talg);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

}  // namespace
}  // namespace repro::tuner
