// The pruned best-of-tiles path computes every tile's floor in one
// pass before it visits any tile (Session::tile_floors), visits tiles
// in ascending (floor, Talg) order and skips a tile whose floor
// exceeds the incumbent. These tests pin (a) the pass's floors to a
// fresh bounds-only profile (GPU) and to cpusim::TileFloors (CPU) bit
// for bit at one and four jobs, with GPU step chains that cross
// (tT, tS1) groups, invalid tiles and a chunk boundary inside a group,
// and (b) the winners of best_tile and compare_strategies to the
// serial scalar oracles under prune on/off x jobs 1/4, cold, with a
// warm seed and with a finite incumbent seed.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cpusim/lower_bound.hpp"
#include "device/registry.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/device.hpp"
#include "gpusim/lower_bound.hpp"
#include "support/cpu_scalar_oracle.hpp"
#include "support/scalar_oracle.hpp"
#include "tuner/session.hpp"
#include "tuner/space.hpp"

namespace repro::tuner {
namespace {

using stencil::KernelVariant;

const stencil::ProblemSize kSmall2D{.dim = 2, .S = {2048, 2048, 0}, .T = 256};

EnumOptions small_space() {
  return EnumOptions{}
      .with_tT_max(16)
      .with_tT_step(2)
      .with_tS1_max(24)
      .with_tS1_step(4)
      .with_tS2_max(128)
      .with_tS2_step(32);
}

const KernelVariant kVariants[] = {
    {}, {.unroll = 2}, {.unroll = 4, .staging = stencil::Staging::kRegister}};

const device::Descriptor& find_device(const char* name) {
  const device::Descriptor* d = device::registry().find(name);
  EXPECT_NE(d, nullptr) << name;
  return *d;
}

// Contiguous (tT, tS1) groups of seeded tS2 draws, the way an
// enumeration lists them. Odd tT makes a whole group invalid; a
// non-positive tS2 makes one tile invalid inside a valid group, so
// the tile after it cannot step from it.
std::vector<hhc::TileSizes> seeded_groups() {
  Rng rng(2031);
  std::vector<hhc::TileSizes> tiles;
  const struct {
    std::int64_t tT, tS1;
    int count;
  } groups[] = {{2, 4, 23}, {4, 8, 30}, {5, 8, 9},  {6, 12, 41},
                {8, 16, 35}, {8, 20, 27}, {12, 6, 19}};
  for (const auto& g : groups) {
    for (int k = 0; k < g.count; ++k) {
      const std::int64_t tS2 =
          rng.next_below(9) == 0 ? 0 : 8 * rng.uniform_int(1, 24);
      tiles.push_back({.tT = g.tT, .tS1 = g.tS1, .tS2 = tS2, .tS3 = 1});
    }
  }
  return tiles;
}

bool same_group(const hhc::TileSizes& a, const hhc::TileSizes& b) {
  return a.tT == b.tT && a.tS1 == b.tS1;
}

TEST(FloorPass, GpuStepChainFloorsEqualAFreshBoundsProfile) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const TuningContext ctx =
      TuningContext::calibrate(gpusim::gtx980(), def, kSmall2D);
  const std::vector<hhc::TileSizes> tiles = seeded_groups();
  const std::size_t chunk = Session::kFloorChunk;
  ASSERT_GT(tiles.size(), 2 * chunk);
  // Some chunk boundary falls inside a group, so the pass restarts a
  // chain where one job's walk would have stepped.
  bool split_group = false;
  for (std::size_t i = chunk; i < tiles.size(); i += chunk) {
    split_group = split_group || same_group(tiles[i - 1], tiles[i]);
  }
  ASSERT_TRUE(split_group);

  const std::vector<hhc::ThreadConfig> threads =
      device_thread_configs(ctx.dev, kSmall2D.dim);
  // The chain builds where a chunk starts, the group changes or the
  // previous tile is invalid, and steps everywhere else.
  std::size_t want_builds = 0;
  std::size_t invalid = 0;
  std::vector<bool> valid(tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    valid[i] = gpusim::TileCostProfile::build_bounds(kSmall2D, tiles[i],
                                                     def.radius)
                   .valid();
    invalid += valid[i] ? 0 : 1;
    if (i % chunk == 0 || !same_group(tiles[i - 1], tiles[i]) ||
        !valid[i - 1]) {
      ++want_builds;
    }
  }
  ASSERT_GT(invalid, 9u);  // the odd-tT group and some tS2 = 0 draws
  ASSERT_LT(want_builds, tiles.size() / 2);

  for (const std::span<const KernelVariant> vars :
       {std::span<const KernelVariant>{},
        std::span<const KernelVariant>(kVariants)}) {
    const std::span<const KernelVariant> axis =
        vars.empty() ? std::span<const KernelVariant>(kVariants, 1) : vars;
    std::vector<double> want(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      want[i] = gpusim::tile_floor(
                    ctx.dev.gpu(), def, kSmall2D, tiles[i], threads, axis,
                    gpusim::TileCostProfile::build_bounds(kSmall2D, tiles[i],
                                                          def.radius))
                    .seconds;
      if (!valid[i]) {
        EXPECT_EQ(want[i], std::numeric_limits<double>::infinity()) << i;
      }
    }
    for (const int jobs : {1, 4}) {
      const std::string what = std::to_string(vars.size()) +
                               " variants, jobs " + std::to_string(jobs);
      Session s(ctx, SessionOptions{}.with_jobs(jobs));
      const std::vector<double> got = s.tile_floors(tiles, vars);
      ASSERT_EQ(got.size(), tiles.size()) << what;
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << what << " tile " << i << " "
                                   << tiles[i].to_string();
      }
      const SweepStats st = s.stats();
      EXPECT_EQ(st.profile_builds, want_builds) << what;
      EXPECT_EQ(st.profile_steps, tiles.size() - want_builds) << what;
      EXPECT_EQ(st.histogram_builds, 0u) << what;
      EXPECT_EQ(st.machine_points, 0u) << what;
      EXPECT_GT(st.bound_seconds, 0.0) << what;
      // The pass reads and writes no tile record.
      EXPECT_EQ(s.tiles_held(), 0u) << what;
    }
  }
}

TEST(FloorPass, CpuFloorsEqualTileFloorsOverTheStrandAxis) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const device::Descriptor& xeon = find_device("Xeon E5-2690 v4");
  const TuningContext ctx = TuningContext::calibrate(xeon, def, kSmall2D);
  const std::vector<hhc::TileSizes> tiles =
      enumerate_feasible(2, ctx.inputs.hw, small_space(), def.radius);
  ASSERT_GT(tiles.size(), Session::kFloorChunk);
  const std::vector<hhc::ThreadConfig> threads =
      device_thread_configs(ctx.dev, kSmall2D.dim);
  for (const int jobs : {1, 4}) {
    Session s(ctx, SessionOptions{}.with_jobs(jobs));
    // The variant axis collapses to the default on a CPU.
    const std::vector<double> got = s.tile_floors(tiles, kVariants);
    ASSERT_EQ(got.size(), tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      EXPECT_EQ(got[i],
                cpusim::TileFloors(xeon.cpu(), def, kSmall2D, tiles[i])
                    .over(threads)
                    .seconds)
          << "jobs " << jobs << " tile " << tiles[i].to_string();
    }
    const SweepStats st = s.stats();
    EXPECT_EQ(st.profile_builds + st.profile_steps, 0u);
    EXPECT_EQ(s.tiles_held(), 0u);
  }
}

// The skip is strict, like every prune: a tile whose floor equals the
// incumbent is visited (one of its points may tie the winner), one
// whose floor is a hair above it is not, and leaves no record.
TEST(FloorPass, ATileIsSkippedOnlyWhenItsFloorExceedsTheIncumbent) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const TuningContext ctx =
      TuningContext::calibrate(gpusim::gtx980(), def, kSmall2D);
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const std::size_t axis = device_thread_configs(ctx.dev, 2).size();
  Session probe(ctx, SessionOptions{}.with_jobs(1));
  const double floor_s = probe.tile_floors({&ts, 1}).front();
  ASSERT_LT(floor_s, std::numeric_limits<double>::infinity());

  Session at(ctx, SessionOptions{}.with_jobs(1));
  at.best_tile({&ts, 1}, {}, {}, floor_s);
  EXPECT_EQ(at.tiles_held(), 1u);
  EXPECT_LT(at.stats().points_pruned, axis);

  Session below(ctx, SessionOptions{}.with_jobs(1));
  below.best_tile({&ts, 1}, {}, {}, std::nextafter(floor_s, 0.0));
  EXPECT_EQ(below.tiles_held(), 0u);
  EXPECT_EQ(below.stats().points_pruned, axis);
  EXPECT_EQ(below.stats().machine_points, 0u);
}

// The scalar oracle of the device: the GPU fold over the variant axis,
// or the CPU fold (no variants).
EvaluatedPoint oracle_best(const TuningContext& ctx,
                           std::span<const hhc::TileSizes> tiles,
                           std::span<const KernelVariant> vars) {
  return ctx.dev.is_gpu() ? test::scalar_best(ctx, tiles, vars)
                          : test::cpu_scalar_best(ctx, tiles);
}

// Whatever the pruning, job count, warm seed or incumbent seed, the
// floor-ordered visit with whole-tile skips returns the scalar fold's
// winner bit for bit, on a GPU and a CPU descriptor.
TEST(FloorPass, WinnersEqualTheScalarOracles) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const CompareOptions copt =
      CompareOptions{}
          .with_enumeration(
              small_space().with_variants({kVariants[0], kVariants[1]}))
          .with_exhaustive_cap(0)
          .with_baseline_count(24);
  for (const char* name : {"GTX 980", "Xeon E5-2690 v4"}) {
    const TuningContext ctx =
        TuningContext::calibrate(find_device(name), def, kSmall2D);
    const std::vector<hhc::TileSizes> space =
        enumerate_feasible(2, ctx.inputs.hw, small_space(), def.radius);
    Session model(ctx, SessionOptions{}.with_jobs(1));
    const ModelSweep sweep = model.sweep_model(space, copt.delta);
    const std::vector<hhc::TileSizes> baseline = baseline_tile_set(
        2, space, ctx.inputs.hw, copt.baseline_count, def.radius);
    const std::span<const KernelVariant> cvars(copt.enumeration.variants);

    const EvaluatedPoint want = oracle_best(ctx, space, kVariants);
    const EvaluatedPoint want_within = oracle_best(ctx, sweep.candidates, {});
    ASSERT_TRUE(want.feasible) << name;
    StrategyComparison want_cmp;
    want_cmp.talg_min = oracle_best(ctx, {&sweep.argmin, 1}, cvars);
    want_cmp.baseline_best = oracle_best(ctx, baseline, cvars);
    want_cmp.within10_best = oracle_best(ctx, sweep.candidates, cvars);
    want_cmp.exhaustive = oracle_best(ctx, space, cvars);

    // A warm seed off the winner's tile, and a finite incumbent seed:
    // the measured texec of a point the sweep folds in.
    const hhc::TileSizes& mid = space[space.size() / 2];
    const std::vector<hhc::ThreadConfig> threads =
        device_thread_configs(ctx.dev, kSmall2D.dim);
    const WarmSeed seed{mid, threads.back(), {}};
    const EvaluatedPoint seed_pt = model.evaluate_point({mid, threads.front()});
    ASSERT_TRUE(seed_pt.feasible) << name;

    for (const bool prune : {true, false}) {
      for (const int jobs : {1, 4}) {
        const std::string what = std::string(name) + " prune " +
                                 (prune ? "on" : "off") + " jobs " +
                                 std::to_string(jobs);
        const SessionOptions opt =
            SessionOptions{}.with_jobs(jobs).with_prune(prune);
        {
          Session s(ctx, opt);
          EXPECT_EQ(s.best_tile(space, kVariants), want) << what;
          EXPECT_EQ(s.stats().points_pruned > 0, prune) << what;
          // A tile skipped on its floor keeps no record.
          if (prune) {
            EXPECT_LT(s.tiles_held(), space.size()) << what;
          }
        }
        {
          Session s(ctx, opt);
          EXPECT_EQ(s.best_tile(space, kVariants, {&seed, 1}), want) << what;
          EXPECT_EQ(s.stats().seeds_admitted, 1u) << what;
        }
        {
          Session s(ctx, opt);
          EXPECT_EQ(s.best_tile(space, kVariants, {}, seed_pt.texec), want)
              << what;
          EXPECT_EQ(s.best_tile(sweep), want_within) << what;
        }
        Session c(ctx, opt);
        const StrategyComparison got = c.compare_strategies(copt);
        EXPECT_EQ(got.talg_min, want_cmp.talg_min) << what;
        EXPECT_EQ(got.baseline_best, want_cmp.baseline_best) << what;
        EXPECT_EQ(got.within10_best, want_cmp.within10_best) << what;
        EXPECT_EQ(got.exhaustive, want_cmp.exhaustive) << what;
      }
    }
  }
}

}  // namespace
}  // namespace repro::tuner
