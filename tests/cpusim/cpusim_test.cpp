// Property tests for the cache-hierarchy CPU backend (src/cpusim):
// the sweep-geometry invariants the timing model is derived from, the
// exact lower bound (the jitter-free simulation, <= simulate_time for
// every run_id and <= best-of-N), the model-optimism inequality the
// bench asserts in bulk (talg <= texec pointwise), the working-set
// cliff, and the microbench calibration identities
// (tau_sync == step_fence_s, T_sync == parallel_launch_s, C_iter > 0).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cpusim/device.hpp"
#include "cpusim/lower_bound.hpp"
#include "cpusim/microbench.hpp"
#include "cpusim/timing.hpp"
#include "model/talg.hpp"
#include "stencil/stencil.hpp"

namespace repro::cpusim {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilDef;
using stencil::StencilKind;

struct CpuCase {
  std::string name;
  StencilKind kind;
  ProblemSize p;
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
};

// Coverage set mirroring the gpusim bound suite: every dimension,
// boundary clipping, radius 2, under-threaded (1 strand), SMT sweet
// spot and over-subscribed strand counts, and a tile too big for any
// cache level (the working-set cliff).
std::vector<CpuCase> cpu_cases() {
  return {
      {"1d_interior", StencilKind::kJacobi1D,
       {.dim = 1, .S = {65536, 0, 0}, .T = 256},
       {.tT = 8, .tS1 = 512, .tS2 = 1, .tS3 = 1},
       {.n1 = 2, .n2 = 1, .n3 = 1}},
      {"1d_radius2", StencilKind::kGauss1D,
       {.dim = 1, .S = {8192, 0, 0}, .T = 128},
       {.tT = 4, .tS1 = 256, .tS2 = 1, .tS3 = 1},
       {.n1 = 1, .n2 = 1, .n3 = 1}},
      {"2d_interior", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 128},
       {.tT = 8, .tS1 = 16, .tS2 = 128, .tS3 = 1},
       {.n1 = 2, .n2 = 1, .n3 = 1}},
      {"2d_clipped", StencilKind::kGradient2D,
       {.dim = 2, .S = {1000, 1000, 0}, .T = 100},
       {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1},
       {.n1 = 4, .n2 = 1, .n3 = 1}},
      {"2d_radius2", StencilKind::kWideStar2D,
       {.dim = 2, .S = {512, 512, 0}, .T = 64},
       {.tT = 4, .tS1 = 16, .tS2 = 32, .tS3 = 1},
       {.n1 = 2, .n2 = 1, .n3 = 1}},
      {"2d_oversubscribed", StencilKind::kJacobi2D,
       {.dim = 2, .S = {2048, 2048, 0}, .T = 64},
       {.tT = 2, .tS1 = 10, .tS2 = 250, .tS3 = 1},
       {.n1 = 48, .n2 = 1, .n3 = 1}},
      {"2d_cliff", StencilKind::kHeat2D,
       {.dim = 2, .S = {4096, 4096, 0}, .T = 32},
       {.tT = 16, .tS1 = 64, .tS2 = 4096, .tS3 = 1},
       {.n1 = 2, .n2 = 1, .n3 = 1}},
      {"3d_interior", StencilKind::kHeat3D,
       {.dim = 3, .S = {256, 256, 256}, .T = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 32},
       {.n1 = 2, .n2 = 1, .n3 = 1}},
      {"3d_clipped", StencilKind::kJacobi3D,
       {.dim = 3, .S = {100, 100, 100}, .T = 30},
       {.tT = 4, .tS1 = 12, .tS2 = 24, .tS3 = 24},
       {.n1 = 2, .n2 = 1, .n3 = 1}},
  };
}

std::vector<const CpuParams*> cpu_devices() {
  return {&xeon_e5_2690v4(), &ryzen_3700x()};
}

TEST(SweepGeometry, ModelDecompositionInvariants) {
  for (const CpuParams* dev : cpu_devices()) {
    for (const CpuCase& c : cpu_cases()) {
      const StencilDef& def = get_stencil(c.kind);
      const SweepGeometry g = analyze_sweep(*dev, def, c.p, c.ts, c.thr);
      ASSERT_TRUE(g.feasible) << dev->name << " " << c.name << ": "
                              << g.infeasible_reason;
      // The schedule shape the model assumes at k = 1.
      EXPECT_EQ(g.rounds, (g.w + dev->cores - 1) / dev->cores)
          << dev->name << " " << c.name;
      EXPECT_EQ(g.active_cores,
                static_cast<int>(std::min<std::int64_t>(dev->cores, g.w)))
          << dev->name << " " << c.name;
      EXPECT_EQ(g.tasks_row, g.w * g.n_sub) << dev->name << " " << c.name;
      EXPECT_EQ(g.wavefronts % 2, 0) << dev->name << " " << c.name;
      // Family averages can only sit at or above the narrow family...
      EXPECT_GE(g.volume_avg, static_cast<double>(g.volume))
          << dev->name << " " << c.name;
      EXPECT_GE(g.io_words_avg, static_cast<double>(g.io_words))
          << dev->name << " " << c.name;
      // ...and the chunk/remainder ceilings only add over the pure
      // SIMD-width floor the model keeps.
      EXPECT_GE(g.groups_avg * static_cast<double>(dev->vector_words),
                g.volume_avg)
          << dev->name << " " << c.name;
      EXPECT_GE(g.line_waste, 1.0) << dev->name << " " << c.name;
      EXPECT_GT(g.cyc_group, 0.0) << dev->name << " " << c.name;
    }
  }
}

void expect_admissible(const CpuParams& dev, const StencilDef& def,
                       const ProblemSize& p, const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr, const std::string& tag) {
  const LowerBound lb = lower_bound(dev, def, p, ts, thr);
  const SimResult sim0 = simulate_time(dev, def, p, ts, thr, /*run_id=*/0);
  ASSERT_EQ(lb.feasible, sim0.feasible) << tag;
  if (!lb.feasible) {
    EXPECT_TRUE(std::isinf(lb.seconds)) << tag;
    return;
  }
  EXPECT_GT(lb.seconds, 0.0) << tag;
  // The bound is the jitter-free simulation: the same point priced on
  // a copy of the descriptor without jitter, bit for bit.
  CpuParams flat = dev;
  flat.jitter_amplitude = 0.0;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lb.seconds),
            std::bit_cast<std::uint64_t>(
                simulate_time(flat, def, p, ts, thr, /*run_id=*/5).seconds))
      << tag;
  // A floor for every run_id (the jitter factor never drops below 1)...
  for (std::uint64_t run = 0; run < 10; ++run) {
    const SimResult sim = simulate_time(dev, def, p, ts, thr, run);
    ASSERT_TRUE(sim.feasible) << tag;
    EXPECT_LE(lb.seconds, sim.seconds) << tag << " run " << run;
  }
  // ...and therefore of the best-of-5 protocol the tuner measures.
  const SimResult best = measure_best_of(dev, def, p, ts, thr);
  EXPECT_LE(lb.seconds, best.seconds) << tag;
}

TEST(LowerBound, AdmissibleAcrossCaseTable) {
  for (const CpuParams* dev : cpu_devices()) {
    for (const CpuCase& c : cpu_cases()) {
      expect_admissible(*dev, get_stencil(c.kind), c.p, c.ts, c.thr,
                        dev->name + " " + c.name);
    }
  }
}

TEST(LowerBound, AdmissibleOnSeededRandomFeasibleSample) {
  const struct {
    StencilKind kind;
    ProblemSize p;
  } spaces[] = {
      {StencilKind::kJacobi1D, {.dim = 1, .S = {16384, 0, 0}, .T = 128}},
      {StencilKind::kHeat2D, {.dim = 2, .S = {512, 512, 0}, .T = 64}},
      {StencilKind::kHeat3D, {.dim = 3, .S = {96, 96, 96}, .T = 16}},
  };
  Rng rng(2026);
  int feasible_seen = 0;
  for (const auto& sp : spaces) {
    const StencilDef& def = get_stencil(sp.kind);
    for (int draw = 0; draw < 40; ++draw) {
      hhc::TileSizes ts;
      ts.tT = 2 * rng.uniform_int(1, 8);
      ts.tS1 = rng.uniform_int(2, 512);
      ts.tS2 = sp.p.dim >= 2 ? 8 * rng.uniform_int(1, 32) : 1;
      ts.tS3 = sp.p.dim >= 3 ? 8 * rng.uniform_int(1, 8) : 1;
      hhc::ThreadConfig thr;
      thr.n1 = static_cast<int>(rng.uniform_int(1, 48));
      const LowerBound lb = lower_bound(xeon_e5_2690v4(), def, sp.p, ts, thr);
      const SimResult sim = simulate_time(xeon_e5_2690v4(), def, sp.p, ts, thr);
      ASSERT_EQ(lb.feasible, sim.feasible) << sp.p.dim << "D draw " << draw;
      if (!sim.feasible) continue;
      ++feasible_seen;
      EXPECT_LE(lb.seconds, sim.seconds) << sp.p.dim << "D draw " << draw;
      const SimResult best =
          measure_best_of(xeon_e5_2690v4(), def, sp.p, ts, thr);
      EXPECT_LE(lb.seconds, best.seconds) << sp.p.dim << "D draw " << draw;
    }
  }
  EXPECT_GE(feasible_seen, 20);
}

TEST(Simulator, DeterministicAndBestOfIsEnvelope) {
  const StencilDef& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 128};
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 128, .tS3 = 1};
  const hhc::ThreadConfig thr{.n1 = 2, .n2 = 1, .n3 = 1};
  const CpuParams& dev = xeon_e5_2690v4();

  const SimResult a = simulate_time(dev, def, p, ts, thr, 3);
  const SimResult b = simulate_time(dev, def, p, ts, thr, 3);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.gflops, b.gflops);

  const SimResult best = measure_best_of(dev, def, p, ts, thr, 5);
  for (std::uint64_t run = 0; run < 5; ++run) {
    const SimResult sim = simulate_time(dev, def, p, ts, thr, run);
    EXPECT_LE(best.seconds, sim.seconds) << "run " << run;
    // Jitter is bounded: within amplitude of the best-of envelope.
    EXPECT_LE(sim.seconds, best.seconds * (1.0 + dev.jitter_amplitude))
        << "run " << run;
  }
}

TEST(Simulator, InfeasibleConfigurationsAreDiagnosed) {
  const StencilDef& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {512, 512, 0}, .T = 64};
  const hhc::ThreadConfig thr{.n1 = 2, .n2 = 1, .n3 = 1};
  const CpuParams& dev = xeon_e5_2690v4();

  // Odd tT: the hexagonal geometry itself is invalid.
  const SimResult odd = simulate_time(
      dev, def, p, {.tT = 7, .tS1 = 16, .tS2 = 64, .tS3 = 1}, thr);
  EXPECT_FALSE(odd.feasible);
  EXPECT_FALSE(odd.infeasible_reason.empty());
  // tS1 below the dependence slope of a radius-2 stencil.
  const StencilDef& wide = get_stencil(StencilKind::kWideStar2D);
  const SimResult slope = simulate_time(
      dev, wide, p, {.tT = 4, .tS1 = 1, .tS2 = 64, .tS3 = 1}, thr);
  EXPECT_FALSE(slope.feasible);
  // Strand count out of range.
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  EXPECT_FALSE(
      simulate_time(dev, def, p, ts, {.n1 = 0, .n2 = 1, .n3 = 1}).feasible);
  EXPECT_FALSE(
      simulate_time(dev, def, p, ts, {.n1 = 2048, .n2 = 1, .n3 = 1}).feasible);
  // The lower bound agrees and reports +infinity.
  const LowerBound lb = lower_bound(
      dev, def, p, {.tT = 7, .tS1 = 16, .tS2 = 64, .tS3 = 1}, thr);
  EXPECT_FALSE(lb.feasible);
  EXPECT_TRUE(std::isinf(lb.seconds));
}

TEST(WorkingSet, FootprintMonotoneAndFitLevelMovesOutward) {
  const StencilDef& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 64};
  const hhc::ThreadConfig thr{.n1 = 2, .n2 = 1, .n3 = 1};
  const CpuParams& dev = xeon_e5_2690v4();

  std::int64_t prev_footprint = 0;
  std::size_t prev_rank = 0;
  bool saw_dram = false;
  for (std::int64_t tS2 = 32; tS2 <= 16384; tS2 *= 2) {
    const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = tS2, .tS3 = 1};
    const SweepGeometry g = analyze_sweep(dev, def, p, ts, thr);
    ASSERT_TRUE(g.feasible) << "tS2=" << tS2;
    EXPECT_GT(g.footprint_bytes, prev_footprint) << "tS2=" << tS2;
    prev_footprint = g.footprint_bytes;
    // fit_level indexes L1 -> LLC; -1 (DRAM) ranks past every level.
    const std::size_t rank = g.fit_level < 0 ? dev.levels.size()
                                             : static_cast<std::size_t>(
                                                   g.fit_level);
    EXPECT_GE(rank, prev_rank) << "tS2=" << tS2;
    prev_rank = rank;
    saw_dram = saw_dram || g.fit_level < 0;
  }
  EXPECT_TRUE(saw_dram);  // the sweep must actually reach the cliff

  // Falling off the last cache level costs: the per-step DRAM
  // re-stream makes the per-point time jump.
  const hhc::TileSizes fits{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::TileSizes spills{.tT = 8, .tS1 = 16, .tS2 = 16384, .tS3 = 1};
  const SweepGeometry gf = analyze_sweep(dev, def, p, fits, thr);
  const SweepGeometry gs = analyze_sweep(dev, def, p, spills, thr);
  ASSERT_GE(gf.fit_level, 0);
  ASSERT_EQ(gs.fit_level, -1);
  const SimResult sf = simulate_time(dev, def, p, fits, thr, 0);
  const SimResult ss = simulate_time(dev, def, p, spills, thr, 0);
  ASSERT_TRUE(sf.feasible);
  ASSERT_TRUE(ss.feasible);
  EXPECT_GT(ss.service_seconds, 0.0);
  // Both tiles sweep the same problem, so whole-sweep seconds compare
  // directly — the restream makes the spilling tile strictly slower.
  EXPECT_GT(ss.seconds, sf.seconds);
}

TEST(Microbench, CalibrationMatchesDescriptorScalars) {
  for (const CpuParams* dev : cpu_devices()) {
    const StencilDef& def = get_stencil(StencilKind::kHeat2D);
    const model::ModelInputs in = calibrate_model(*dev, def);
    // The fence and launch storms recover the descriptor scalars
    // exactly — these are the 2*tau and T_sync the model charges.
    EXPECT_DOUBLE_EQ(in.mb.tau_sync, dev->step_fence_s) << dev->name;
    EXPECT_DOUBLE_EQ(in.mb.T_sync, dev->parallel_launch_s) << dev->name;
    EXPECT_GT(in.mb.L_s_per_word, 0.0) << dev->name;
    EXPECT_GT(in.c_iter, 0.0) << dev->name;
    // Model-visible machine shape: cores and SIMD lanes.
    EXPECT_EQ(in.hw.n_sm, dev->cores) << dev->name;
    EXPECT_EQ(in.hw.n_v, dev->vector_words) << dev->name;
    // One tile per core at a time: Eqn 12's k-overlap never applies.
    EXPECT_EQ(in.hw.max_tb_per_sm, 1) << dev->name;
  }
}

TEST(Model, OptimisticPointwiseOnLatticeSample) {
  // The bench asserts optimistic_fraction == 1.0 over full sweeps;
  // this pins the same inequality on a small lattice per stencil so a
  // regression fails in the tier-1 suite, not only in CI's bench job.
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 128};
  const double eps = 1e-12;
  for (const CpuParams* dev : cpu_devices()) {
    for (const StencilKind kind :
         {StencilKind::kHeat2D, StencilKind::kGradient2D}) {
      const StencilDef& def = get_stencil(kind);
      const model::ModelInputs in = calibrate_model(*dev, def);
      int checked = 0;
      for (const std::int64_t tT : {2, 4, 8, 16}) {
        for (const std::int64_t tS1 : {8, 16, 32}) {
          for (const std::int64_t tS2 : {64, 128, 256}) {
            const hhc::TileSizes ts{
                .tT = tT, .tS1 = tS1, .tS2 = tS2, .tS3 = 1};
            if (!model::tile_fits(p.dim, ts, in.hw, def.radius)) continue;
            const model::TalgBreakdown bd = model::talg_auto_k(in, p, ts);
            if (!std::isfinite(bd.talg) || bd.talg <= 0.0) continue;
            // Any strand count: the best-over-threads texec the bench
            // measures is itself a min over these.
            for (const int strands : {1, 2, 8}) {
              const SimResult sim = measure_best_of(
                  *dev, def, p, ts, {.n1 = strands, .n2 = 1, .n3 = 1});
              if (!sim.feasible) continue;
              ++checked;
              EXPECT_GE(sim.seconds + eps, bd.talg)
                  << dev->name << " " << def.name << " tT=" << tT
                  << " tS1=" << tS1 << " tS2=" << tS2
                  << " strands=" << strands;
            }
          }
        }
      }
      EXPECT_GE(checked, 50) << dev->name;
    }
  }
}

}  // namespace
}  // namespace repro::cpusim
