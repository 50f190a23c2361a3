// tuner::Session driven by a CPU descriptor end-to-end: calibration
// routes through cpusim's microbenchmarks, measurement through the
// cache-hierarchy simulator, pruning through the cpusim exact bound —
// all behind the same Session API the GPU backend uses. The winners
// are pinned to a serial scalar fold (tests/support/cpu_scalar_oracle.hpp)
// on both CPU descriptors, with pruning on and off, at one and four
// jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cpusim/device.hpp"
#include "device/registry.hpp"
#include "support/cpu_scalar_oracle.hpp"
#include "tuner/session.hpp"
#include "tuner/space.hpp"

namespace repro::tuner {
namespace {

const device::Descriptor& xeon() {
  const device::Descriptor* d = device::registry().find("Xeon E5-2690 v4");
  EXPECT_NE(d, nullptr);
  return *d;
}

stencil::ProblemSize small_2d() {
  return {.dim = 2, .S = {1024, 1024, 0}, .T = 128};
}

TEST(SessionCpu, DeviceThreadConfigsAreFlatStrandCounts) {
  const auto cpu = device_thread_configs(xeon(), 2);
  ASSERT_EQ(cpu.size(), 10u);
  for (const hhc::ThreadConfig& thr : cpu) {
    EXPECT_GE(thr.n1, 1);
    EXPECT_EQ(thr.n2, 1);  // strands are flat: no 2D/3D block shapes
    EXPECT_EQ(thr.n3, 1);
  }
  // GPU descriptors keep the historical block shapes byte-for-byte.
  const device::Descriptor* gpu = device::registry().find("GTX 980");
  ASSERT_NE(gpu, nullptr);
  EXPECT_EQ(device_thread_configs(*gpu, 2), default_thread_configs(2));
}

TEST(SessionCpu, CalibrationRoutesThroughCpusim) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const TuningContext ctx = TuningContext::calibrate(xeon(), def, small_2d());
  const cpusim::CpuParams& dev = cpusim::xeon_e5_2690v4();
  EXPECT_DOUBLE_EQ(ctx.inputs.mb.tau_sync, dev.step_fence_s);
  EXPECT_DOUBLE_EQ(ctx.inputs.mb.T_sync, dev.parallel_launch_s);
  EXPECT_GT(ctx.inputs.c_iter, 0.0);
  EXPECT_EQ(ctx.inputs.hw.n_sm, dev.cores);
  EXPECT_EQ(ctx.inputs.hw.n_v, dev.vector_words);
  EXPECT_EQ(ctx.inputs.hw.max_tb_per_sm, 1);
}

TEST(SessionCpu, BestOverThreadsIsFeasibleAndOptimistic) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  Session session(xeon(), def, small_2d(), SessionOptions{}.with_jobs(2));
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 128, .tS3 = 1};
  const EvaluatedPoint best = session.best_over_threads(ts);
  ASSERT_TRUE(best.feasible);
  EXPECT_GT(best.gflops, 0.0);
  // The model stays optimistic at the measured operating point.
  EXPECT_GE(best.texec + 1e-12, best.talg);
  // The winner is one of the CPU strand counts.
  const auto threads = device_thread_configs(xeon(), 2);
  EXPECT_NE(std::find(threads.begin(), threads.end(), best.dp.thr),
            threads.end());
}

TEST(SessionCpu, MemoizationServesRepeatedPoints) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  Session session(xeon(), def, small_2d(), SessionOptions{}.with_jobs(1));
  const DataPoint dp{.ts = {.tT = 8, .tS1 = 16, .tS2 = 128, .tS3 = 1},
                     .thr = {.n1 = 2, .n2 = 1, .n3 = 1}};
  const EvaluatedPoint a = session.evaluate_point(dp);
  const std::size_t hits_before = session.stats().cache_hits;
  const EvaluatedPoint b = session.evaluate_point(dp);
  EXPECT_EQ(a, b);
  EXPECT_GT(session.stats().cache_hits, hits_before);
  EXPECT_GE(session.cache_size(), 1u);
}

TEST(SessionCpu, PruningPreservesTheWinner) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const TuningContext ctx = TuningContext::calibrate(xeon(), def, small_2d());
  const EnumOptions eopt = EnumOptions{}
                               .with_tT_max(8)
                               .with_tS1_max(32)
                               .with_tS1_step(8)
                               .with_tS2_max(128);
  const std::vector<hhc::TileSizes> space =
      enumerate_feasible(2, ctx.inputs.hw, eopt, def.radius);
  ASSERT_FALSE(space.empty());

  Session pruned(ctx, SessionOptions{}.with_jobs(2).with_prune(true));
  Session exact(ctx, SessionOptions{}.with_jobs(2).with_prune(false));
  const auto with_prune = pruned.best_over_threads_many(space);
  const auto without = exact.best_over_threads_many(space);
  ASSERT_EQ(with_prune.size(), without.size());

  const auto argmin = [](const std::vector<EvaluatedPoint>& pts) {
    const EvaluatedPoint* best = nullptr;
    for (const EvaluatedPoint& ep : pts) {
      if (!ep.feasible) continue;
      if (best == nullptr || ep.texec < best->texec) best = &ep;
    }
    return best;
  };
  const EvaluatedPoint* a = argmin(with_prune);
  const EvaluatedPoint* b = argmin(without);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // The pruned winner is bitwise the unpruned winner.
  EXPECT_EQ(*a, *b);
}

TEST(SessionCpu, CompareStrategiesPrunedEqualsUnpruned) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const TuningContext ctx = TuningContext::calibrate(xeon(), def, small_2d());
  CompareOptions copt;
  copt.enumeration = EnumOptions{}
                         .with_tT_max(8)
                         .with_tS1_max(32)
                         .with_tS1_step(8)
                         .with_tS2_max(128);
  copt.exhaustive_cap = 80;
  copt.baseline_count = 20;

  Session pruned(ctx, SessionOptions{}.with_jobs(2).with_prune(true));
  Session exact(ctx, SessionOptions{}.with_jobs(2).with_prune(false));
  const StrategyComparison a = pruned.compare_strategies(copt);
  const StrategyComparison b = exact.compare_strategies(copt);
  EXPECT_EQ(a, b);

  ASSERT_TRUE(a.exhaustive.feasible);
  ASSERT_TRUE(a.talg_min.feasible);
  // The exhaustive pass is the floor of every strategy.
  EXPECT_LE(a.exhaustive.texec, a.talg_min.texec + 1e-12);
  EXPECT_LE(a.exhaustive.texec, a.within10_best.texec + 1e-12);
  EXPECT_GE(a.candidates_tried, 1u);
  EXPECT_EQ(a.device, "Xeon E5-2690 v4");
}

// Every Session winner on a CPU descriptor, best_tile and each
// compare_strategies pass, equals the serial scalar fold over the same
// tiles bit for bit, whatever the pruning and job settings.
TEST(SessionCpu, WinnersEqualTheScalarOracle) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  CompareOptions copt;
  copt.enumeration = EnumOptions{}
                         .with_tT_max(12)
                         .with_tS1_max(32)
                         .with_tS1_step(6)
                         .with_tS2_max(160);
  copt.exhaustive_cap = 60;
  copt.baseline_count = 16;
  for (const char* name : {"Xeon E5-2690 v4", "Ryzen 7 3700X"}) {
    const device::Descriptor* d = device::registry().find(name);
    ASSERT_NE(d, nullptr) << name;
    const TuningContext ctx = TuningContext::calibrate(*d, def, small_2d());
    const std::vector<hhc::TileSizes> space =
        enumerate_feasible(2, ctx.inputs.hw, copt.enumeration, def.radius);
    ASSERT_GT(space.size(), copt.exhaustive_cap) << name;

    // The tiles of each comparison pass, as compare_strategies forms
    // them.
    Session model(ctx, SessionOptions{}.with_jobs(1));
    const ModelSweep sweep = model.sweep_model(space, copt.delta);
    const std::vector<hhc::TileSizes> baseline = baseline_tile_set(
        2, space, ctx.inputs.hw, copt.baseline_count, def.radius);
    const std::size_t stride =
        (space.size() + copt.exhaustive_cap - 1) / copt.exhaustive_cap;
    std::vector<hhc::TileSizes> visited;
    for (std::size_t i = 0; i < space.size(); i += stride) {
      visited.push_back(space[i]);
    }
    StrategyComparison want;
    want.hhc_default = test::cpu_scalar_point(
        ctx, {hhc_default_tiles(2), hhc::ThreadConfig{32, 2, 1}});
    want.talg_min = test::cpu_scalar_best(ctx, {&sweep.argmin, 1});
    want.baseline_best = test::cpu_scalar_best(ctx, baseline);
    want.within10_best = test::cpu_scalar_best(ctx, sweep.candidates);
    want.exhaustive = test::cpu_scalar_best(ctx, visited);
    for (const EvaluatedPoint* ep :
         {&want.talg_min, &want.within10_best, &want.baseline_best}) {
      if (ep->feasible && (!want.exhaustive.feasible ||
                           ep->texec < want.exhaustive.texec)) {
        want.exhaustive = *ep;
      }
    }
    const EvaluatedPoint want_best = test::cpu_scalar_best(ctx, space);
    ASSERT_TRUE(want_best.feasible) << name;
    ASSERT_TRUE(want.within10_best.feasible) << name;

    for (const bool prune : {true, false}) {
      for (const int jobs : {1, 4}) {
        const std::string what = std::string(name) + " prune " +
                                 (prune ? "on" : "off") + " jobs " +
                                 std::to_string(jobs);
        const SessionOptions opt =
            SessionOptions{}.with_jobs(jobs).with_prune(prune);
        Session s(ctx, opt);
        EXPECT_EQ(s.best_tile(space), want_best) << what;
        EXPECT_EQ(s.best_tile(sweep), want.within10_best) << what;
        // The bounded path really ran: the oracle pins pruned sweeps.
        EXPECT_EQ(s.stats().points_pruned > 0, prune) << what;
        Session c(ctx, opt);
        const StrategyComparison got = c.compare_strategies(copt);
        EXPECT_EQ(got.hhc_default, want.hhc_default) << what;
        EXPECT_EQ(got.talg_min, want.talg_min) << what;
        EXPECT_EQ(got.baseline_best, want.baseline_best) << what;
        EXPECT_EQ(got.within10_best, want.within10_best) << what;
        EXPECT_EQ(got.exhaustive, want.exhaustive) << what;
        EXPECT_EQ(got.candidates_tried, sweep.candidates.size()) << what;
      }
    }
  }
}

TEST(SessionCpu, AuditAcceptsShippedCpuDescriptors) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  for (const char* name : {"Xeon E5-2690 v4", "Ryzen 7 3700X"}) {
    const device::Descriptor* d = device::registry().find(name);
    ASSERT_NE(d, nullptr) << name;
    Session session(*d, def, small_2d(), SessionOptions{}.with_jobs(1));
    const auto diags = session.audit(
        hhc::TileSizes{.tT = 8, .tS1 = 16, .tS2 = 128, .tS3 = 1},
        hhc::ThreadConfig{.n1 = 2, .n2 = 1, .n3 = 1});
    for (const analysis::Diagnostic& diag : diags) {
      EXPECT_NE(diag.severity, analysis::Severity::kError)
          << name << ": " << diag.message;
    }
  }
}

}  // namespace
}  // namespace repro::tuner
