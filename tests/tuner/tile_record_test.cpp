// The Session's per-tile records: one table keyed by tile size holds
// each tile's GPU profile, its Talg and its measured (thread, variant)
// points. These tests pin (a) the point counters of fixed GPU and CPU
// sweeps at one job, equal to those of the per-point memo the records
// replaced, (b) what the profile counters mean now that a tile's
// band histograms are derived only when it is first priced, and (c)
// that workers bounding and pricing the same tiles concurrently still
// return the one-job and scalar-oracle results bit for bit, and (d)
// that a per-tile sweep prices each point it does not hold once.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "device/registry.hpp"
#include "gpusim/device.hpp"
#include "gpusim/lower_bound.hpp"
#include "stencil/variant.hpp"
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

struct Counters {
  std::size_t machine_points, cache_hits, points_pruned, seeds_offered,
      seeds_admitted, cache_size;
  friend bool operator==(const Counters&, const Counters&) = default;
};

Counters counters(const Session& s) {
  const SweepStats st = s.stats();
  return {st.machine_points, st.cache_hits,     st.points_pruned,
          st.seeds_offered,  st.seeds_admitted, s.cache_size()};
}

std::string show(const Counters& c) {
  return "machine=" + std::to_string(c.machine_points) +
         " hits=" + std::to_string(c.cache_hits) +
         " pruned=" + std::to_string(c.points_pruned) +
         " seeds=" + std::to_string(c.seeds_admitted) + "/" +
         std::to_string(c.seeds_offered) +
         " cache=" + std::to_string(c.cache_size);
}

// The profile counters' meaning on any GPU run: every profile is built
// or stepped once per tile, histograms are derived only for tiles that
// were priced, and every fresh measurement adds one held point.
void expect_profile_meaning(const Session& s, const std::string& what) {
  const SweepStats st = s.stats();
  EXPECT_LE(st.histogram_builds, st.profile_builds + st.profile_steps)
      << what;
  EXPECT_GT(st.histogram_builds, 0u) << what;
  EXPECT_EQ(s.cache_size(), st.machine_points - st.cache_hits) << what;
}

// Pinned at one job. The GTX 980 rows are those of the ascending-floor
// visit order: a pruned tile list computes every tile's floor first,
// visits tiles by (floor, Talg) and skips a tile whose floor exceeds
// the incumbent, counting its whole axis as pruned. The Xeon rows are
// those of the exact CPU bound (the jitter-free time per point), which
// prunes all but the first tile's ten strand counts in best_tile.
TEST(TileRecord, CountersMatchThePointMemoAtOneJob) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const struct {
    const char* device;
    Counters best_tile, warm_variants, compare;
  } cases[] = {
      {"GTX 980",
       {565, 0, 1355, 0, 0, 565},
       {1115, 277, 6566, 1, 1, 838},
       {717, 279, 4604, 0, 0, 438}},
      {"Xeon E5-2690 v4",
       {10, 0, 1910, 0, 0, 10},
       {21, 11, 3820, 1, 1, 10},
       {41, 30, 2120, 0, 0, 11}},
  };
  for (const auto& c : cases) {
    const device::Descriptor* dev = device::registry().find(c.device);
    ASSERT_NE(dev, nullptr) << c.device;
    const TuningContext ctx = TuningContext::calibrate(*dev, def, kSmall2D);
    const std::vector<hhc::TileSizes> tiles =
        enumerate_feasible(2, ctx.inputs.hw, small_space(), def.radius);
    ASSERT_EQ(tiles.size(), 192u) << c.device;
    {
      Session s(ctx, SessionOptions{}.with_jobs(1));
      const EvaluatedPoint a = s.best_tile(tiles);
      EXPECT_EQ(counters(s), c.best_tile)
          << c.device << " best_tile: " << show(counters(s));
      const WarmSeed seed{a.dp.ts, a.dp.thr, a.dp.var};
      s.best_tile(tiles, kVariants, {&seed, 1});
      EXPECT_EQ(counters(s), c.warm_variants)
          << c.device << " warm best_tile: " << show(counters(s));
      if (dev->is_gpu()) {
        expect_profile_meaning(s, c.device);
      } else {
        const SweepStats st = s.stats();
        EXPECT_EQ(st.profile_builds + st.profile_steps + st.profile_hits +
                      st.histogram_builds,
                  0u)
            << c.device;
      }
    }
    Session s(ctx, SessionOptions{}.with_jobs(1));
    s.compare_strategies(
        CompareOptions{}
            .with_enumeration(
                small_space().with_variants({kVariants[0], kVariants[1]}))
            .with_exhaustive_cap(0)
            .with_baseline_count(24));
    EXPECT_EQ(counters(s), c.compare)
        << c.device << " compare_strategies: " << show(counters(s));
    if (dev->is_gpu()) {
      expect_profile_meaning(s, c.device);
      // Most bounded tiles are pruned whole and never get histograms.
      const SweepStats st = s.stats();
      EXPECT_LT(2 * st.histogram_builds, st.profile_builds + st.profile_steps)
          << c.device;
    }
  }
}

// A tile whose floor exceeds the incumbent is skipped before any
// visit: the floor pass builds its bounds-only profile and drops it,
// and the tile keeps no record. A visited tile whose points are all
// pruned (its floor does not exceed the incumbent, but every point
// bound does) keeps a bounds-only profile; its histograms are derived
// when it is first priced, and a later visit finds the profile in its
// record.
TEST(TileRecord, BoundedTilesDeriveHistogramsOnlyWhenPriced) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  Session s(gpusim::gtx980(), def, kSmall2D, SessionOptions{}.with_jobs(1));
  const std::vector<hhc::ThreadConfig> threads = default_thread_configs(2);
  const std::size_t nthr = threads.size();
  const hhc::TileSizes good{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::TileSizes poor{.tT = 4, .tS1 = 1, .tS2 = 32, .tS3 = 1};

  // No incumbent yet inside the sweep: every point is priced, from
  // one profile built with histograms.
  s.best_over_threads(good);
  SweepStats st = s.stats();
  EXPECT_EQ(st.profile_builds, 1u);
  EXPECT_EQ(st.histogram_builds, 1u);
  EXPECT_EQ(st.profile_hits, 0u);
  EXPECT_EQ(s.cache_size(), nthr);
  EXPECT_EQ(s.tiles_held(), 1u);

  // Seeded with `good`'s measured best (its points are all hits),
  // `poor` is skipped on its floor: the floor pass builds one
  // bounds-only profile per tile and keeps neither.
  const hhc::TileSizes both[] = {good, poor};
  const EvaluatedPoint first = s.best_over_threads(good);
  const EvaluatedPoint best = s.best_tile(both, {}, {}, first.texec);
  EXPECT_EQ(best, first);
  st = s.stats();
  ASSERT_EQ(st.points_pruned, nthr);
  EXPECT_EQ(st.cache_hits, 2 * nthr);
  EXPECT_EQ(st.profile_builds, 3u);
  EXPECT_EQ(st.histogram_builds, 1u);
  EXPECT_EQ(st.profile_hits, 0u);  // `good` was all hits: no profile use
  EXPECT_EQ(s.cache_size(), nthr);
  EXPECT_EQ(s.tiles_held(), 1u);  // `poor` left no record

  // Seeded at `poor`'s own floor, which lies strictly below each of
  // its point bounds, `poor` is visited: the floor pass builds one
  // bounds-only profile and drops it, the visit builds the one its
  // point bounds need, every point is pruned and the record keeps the
  // profile.
  Session probe(s.context(), SessionOptions{}.with_jobs(1));
  const double floor_s = probe.tile_floors({&poor, 1}).front();
  for (const hhc::ThreadConfig& thr : threads) {
    ASSERT_LT(floor_s, gpusim::lower_bound(gpusim::gtx980(), def, kSmall2D,
                                           poor, thr)
                           .seconds);
  }
  const EvaluatedPoint pruned = s.best_tile({&poor, 1}, {}, {}, floor_s);
  ASSERT_FALSE(pruned.feasible);
  st = s.stats();
  EXPECT_EQ(st.points_pruned, 2 * nthr);
  EXPECT_EQ(st.profile_builds, 5u);
  EXPECT_EQ(st.histogram_builds, 1u);
  EXPECT_EQ(s.cache_size(), nthr);
  EXPECT_EQ(s.tiles_held(), 2u);

  // Pricing one of its points finds the profile in the record and
  // derives the histograms: no new build.
  s.evaluate_point({poor, threads.front()});
  st = s.stats();
  EXPECT_EQ(st.profile_builds, 5u);
  EXPECT_EQ(st.profile_hits, 1u);
  EXPECT_EQ(st.histogram_builds, 2u);
  EXPECT_EQ(s.cache_size(), nthr + 1);

  // Pricing another point reads the profile with histograms: one
  // hit, no new derivation.
  s.evaluate_point({poor, threads.back()});
  st = s.stats();
  EXPECT_EQ(st.profile_builds, 5u);
  EXPECT_EQ(st.profile_hits, 2u);
  EXPECT_EQ(st.histogram_builds, 2u);
  EXPECT_EQ(s.cache_size(), nthr + 2);
}

// A per-tile sweep is unbounded: after one of a tile's points was
// priced on its own, best_over_threads serves that point from the
// record, prices every other thread config exactly once, prunes
// nothing and returns the scalar oracle's best.
TEST(TileRecord, BestOverThreadsAfterOnePointPricesTheRestOnce) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  for (const char* name : {"GTX 980", "Xeon E5-2690 v4"}) {
    const device::Descriptor* dev = device::registry().find(name);
    ASSERT_NE(dev, nullptr) << name;
    const TuningContext ctx = TuningContext::calibrate(*dev, def, kSmall2D);
    const std::vector<hhc::ThreadConfig> threads =
        device_thread_configs(*dev, 2);
    const std::size_t nthr = threads.size();
    ASSERT_GT(nthr, 1u) << name;
    Session s(ctx, SessionOptions{}.with_jobs(1));
    s.evaluate_point({ts, threads[nthr / 2]});

    const EvaluatedPoint best = s.best_over_threads(ts);
    EXPECT_EQ(best, dev->is_gpu() ? test::scalar_best(ctx, {&ts, 1})
                                  : test::cpu_scalar_best(ctx, {&ts, 1}))
        << name;
    const SweepStats st = s.stats();
    EXPECT_EQ(st.machine_points, nthr + 1) << name;
    EXPECT_EQ(st.cache_hits, 1u) << name;
    EXPECT_EQ(st.points_pruned, 0u) << name;
    EXPECT_EQ(s.cache_size(), nthr) << name;
  }
}

// Four workers on the same few tiles: each tile appears several times
// in the lists, so one worker bounds a tile (bounds-only profile)
// while another prices it (deriving the histograms) and a third
// serves it from the record. Results must equal one job and the
// serial scalar fold. Racing workers may build, derive or price the
// same thing twice (identical values, first commit wins), so only the
// held-point count is bounded here, not the profile counters.
TEST(TileRecord, RacingWorkersMatchOneJobAndTheScalarOracle) {
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const TuningContext ctx =
      TuningContext::calibrate(gpusim::gtx980(), def, kSmall2D);
  const std::vector<hhc::TileSizes> space =
      enumerate_feasible(2, ctx.inputs.hw, small_space(), def.radius);
  std::vector<hhc::TileSizes> tiles;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < space.size(); i += 12) {
      tiles.push_back(space[i]);
    }
  }
  const std::vector<hhc::ThreadConfig> threads = default_thread_configs(2);
  std::vector<DataPoint> dps;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < space.size(); i += 24) {
      for (const KernelVariant& var : kVariants) {
        for (const hhc::ThreadConfig& thr : threads) {
          dps.push_back({space[i], thr, var});
        }
      }
    }
  }

  Session one(ctx, SessionOptions{}.with_jobs(1));
  const EvaluatedPoint want = one.best_tile(tiles, kVariants);
  EXPECT_EQ(want, test::scalar_best(ctx, tiles, kVariants));
  const std::vector<EvaluatedPoint> want_many =
      one.best_over_threads_many(tiles);
  const std::vector<EvaluatedPoint> want_pts = one.evaluate_points(dps);

  for (int round = 0; round < 4; ++round) {
    const std::string what = "round " + std::to_string(round);
    Session four(ctx, SessionOptions{}.with_jobs(4));
    // A best_tile seeded with the winner's texec first: it visits
    // every tile whose floor does not exceed the winner and prunes
    // each point whose bound does, so the passes below race on tiles
    // whose records may hold bounds-only profiles.
    EXPECT_EQ(four.best_tile(tiles, kVariants, {}, want.texec), want) << what;
    EXPECT_EQ(four.evaluate_points(dps), want_pts) << what;
    EXPECT_EQ(four.best_tile(tiles, kVariants), want) << what;
    const std::vector<EvaluatedPoint> many = four.best_over_threads_many(tiles);
    EXPECT_EQ(many, want_many) << what;
    for (std::size_t i = 0; i < tiles.size(); i += 7) {
      const hhc::TileSizes* ts = &tiles[i];
      EXPECT_EQ(many[i], test::scalar_best(ctx, {ts, 1})) << what;
    }
    const SweepStats st = four.stats();
    // Two workers may price the same point; the record holds it once.
    EXPECT_LE(four.cache_size(), st.machine_points - st.cache_hits) << what;
  }
}

}  // namespace
}  // namespace repro::tuner
