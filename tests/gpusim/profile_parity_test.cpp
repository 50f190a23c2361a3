// Parity suite for the two-stage tile-cost pipeline: the O(classes)
// profile (TileCostProfile::build) must equal the row-walk reference
// under tests/support/ (test::build_reference, which visits every row
// and enumerates every skewed band) class for class, and price every
// configuration bitwise-identically, across dimensions,
// boundary-clipped tiles, spill and low-occupancy configs, radius-2
// stencils and a seeded sweep of generated problems. This is what
// makes the O(classes) path safe to use everywhere. The histogram-free
// profile (build_bounds) must equal build() in everything but the
// bins, bound bitwise-identically, and gain histograms equal to a
// scratch build().
#include "gpusim/cost_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/lower_bound.hpp"
#include "gpusim/timing.hpp"
#include "hhc/hex_schedule.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"
#include "support/event_sim.hpp"
#include "support/profile_oracle.hpp"
#include "tuner/space.hpp"

namespace repro::gpusim {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilDef;
using stencil::StencilKind;

struct ParityCase {
  std::string name;
  StencilKind kind;
  ProblemSize p;
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
};

// Every field of both SimResults, no tolerance anywhere.
void expect_sim_equal(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.infeasible_reason, b.infeasible_reason) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.gflops, b.gflops) << what;
  EXPECT_EQ(a.k, b.k) << what;
  EXPECT_EQ(a.regs_per_thread, b.regs_per_thread) << what;
  EXPECT_EQ(a.spills, b.spills) << what;
  EXPECT_EQ(a.mem_seconds, b.mem_seconds) << what;
  EXPECT_EQ(a.compute_seconds, b.compute_seconds) << what;
  EXPECT_EQ(a.launch_seconds, b.launch_seconds) << what;
  EXPECT_EQ(a.sched_seconds, b.sched_seconds) << what;
  EXPECT_EQ(a.kernel_calls, b.kernel_calls) << what;
}

std::vector<ParityCase> parity_cases() {
  return {
      // 1D, tile sizes that do not divide T or S1 (clipped rows and
      // boundary tiles on both ends).
      {"1d_clipped", StencilKind::kJacobi1D,
       {.dim = 1, .S = {10000, 0, 0}, .T = 500},
       {.tT = 6, .tS1 = 48, .tS2 = 1, .tS3 = 1},
       {.n1 = 128, .n2 = 1, .n3 = 1}},
      // 1D, radius-2 stencil (skew slope 2, wider halos).
      {"1d_radius2", StencilKind::kGauss1D,
       {.dim = 1, .S = {8192, 0, 0}, .T = 256},
       {.tT = 4, .tS1 = 64, .tS2 = 1, .tS3 = 1},
       {.n1 = 64, .n2 = 1, .n3 = 1}},
      // 2D, the timing test's bread-and-butter configuration.
      {"2d_interior", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 256},
       {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1},
       {.n1 = 32, .n2 = 8, .n3 = 1}},
      // 2D, T not a multiple of tT and S1 not a multiple of the row
      // pitch: clipped top row plus boundary hexagons.
      {"2d_clipped", StencilKind::kGradient2D,
       {.dim = 2, .S = {1000, 1000, 0}, .T = 100},
       {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      // 2D, radius-2 star (bands skew twice as fast).
      {"2d_radius2", StencilKind::kWideStar2D,
       {.dim = 2, .S = {512, 512, 0}, .T = 64},
       {.tT = 4, .tS1 = 16, .tS2 = 32, .tS3 = 1},
       {.n1 = 32, .n2 = 4, .n3 = 1}},
      // 2D, register-spilling config: big tile, tiny 32x1 block.
      {"2d_spill", StencilKind::kHeat2D,
       {.dim = 2, .S = {1024, 1024, 0}, .T = 128},
       {.tT = 8, .tS1 = 32, .tS2 = 128, .tS3 = 1},
       {.n1 = 32, .n2 = 1, .n3 = 1}},
      // 2D, low occupancy: thread block large enough that residency
      // drops to k == 1.
      {"2d_low_occupancy", StencilKind::kJacobi2D,
       {.dim = 2, .S = {2048, 2048, 0}, .T = 64},
       {.tT = 2, .tS1 = 10, .tS2 = 250, .tS3 = 1},
       {.n1 = 32, .n2 = 16, .n3 = 1}},
      // 3D, interior-dominated.
      {"3d_interior", StencilKind::kHeat3D,
       {.dim = 3, .S = {256, 256, 256}, .T = 32},
       {.tT = 4, .tS1 = 8, .tS2 = 16, .tS3 = 32},
       {.n1 = 32, .n2 = 4, .n3 = 2}},
      // 3D with clipping in every dimension.
      {"3d_clipped", StencilKind::kJacobi3D,
       {.dim = 3, .S = {100, 100, 100}, .T = 30},
       {.tT = 4, .tS1 = 12, .tS2 = 24, .tS3 = 24},
       {.n1 = 32, .n2 = 2, .n3 = 2}},
  };
}

TEST(ProfileParity, SimulateTimeBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile fast =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const TileCostProfile ref =
        test::build_reference(c.p, c.ts, def.radius).profile;
    ASSERT_TRUE(fast.valid()) << c.name << ": " << fast.error();
    ASSERT_TRUE(ref.valid()) << c.name << ": " << ref.error();
    for (const std::uint64_t run : {0ULL, 1ULL, 7ULL}) {
      expect_sim_equal(
          simulate_time(gtx980(), def, c.p, c.ts, c.thr, fast, run),
          simulate_time(gtx980(), def, c.p, c.ts, c.thr, ref, run),
          c.name + " run " + std::to_string(run));
    }
    // And via the profile-free convenience overload.
    expect_sim_equal(simulate_time(gtx980(), def, c.p, c.ts, c.thr),
                     simulate_time(gtx980(), def, c.p, c.ts, c.thr, ref, 0),
                     c.name + " free function");
  }
}

TEST(ProfileParity, MeasureBestOfBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile fast =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const TileCostProfile ref =
        test::build_reference(c.p, c.ts, def.radius).profile;
    expect_sim_equal(measure_best_of(gtx980(), def, c.p, c.ts, c.thr, fast),
                     measure_best_of(gtx980(), def, c.p, c.ts, c.thr, ref),
                     c.name);
  }
}

TEST(ProfileParity, ComputeOnlyBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const TileCostProfile fast =
        TileCostProfile::build(c.p, c.ts, def.radius);
    const TileCostProfile ref =
        test::build_reference(c.p, c.ts, def.radius).profile;
    EXPECT_EQ(simulate_compute_only(gtx980(), def, c.p, c.ts, c.thr, fast),
              simulate_compute_only(gtx980(), def, c.p, c.ts, c.thr, ref))
        << c.name;
  }
}

TEST(ProfileParity, EventSimCongruentReuseBitwiseEqual) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    EventSimOptions reuse;
    reuse.reuse_congruent_tiles = true;
    EventSimOptions enumerate;
    enumerate.reuse_congruent_tiles = false;
    const EventSimResult a =
        simulate_time_event(gtx980(), def, c.p, c.ts, c.thr, reuse);
    const EventSimResult b =
        simulate_time_event(gtx980(), def, c.p, c.ts, c.thr, enumerate);
    EXPECT_EQ(a.feasible, b.feasible) << c.name;
    EXPECT_EQ(a.infeasible_reason, b.infeasible_reason) << c.name;
    EXPECT_EQ(a.seconds, b.seconds) << c.name;
    EXPECT_EQ(a.kernel_calls, b.kernel_calls) << c.name;
    EXPECT_EQ(a.blocks, b.blocks) << c.name;
    EXPECT_EQ(a.mem_channel_busy, b.mem_channel_busy) << c.name;
    EXPECT_EQ(a.sm_compute_busy, b.sm_compute_busy) << c.name;
  }
}

TEST(ProfileParity, ReferenceWalkNeverFindsCongruenceMismatch) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    const test::ReferenceProfile ref =
        test::build_reference(c.p, c.ts, def.radius);
    ASSERT_TRUE(ref.valid) << c.name;
    EXPECT_EQ(ref.mismatches, 0) << c.name;
  }
}

TEST(ProfileParity, CollapseCompressesRowsIntoFewClasses) {
  // The whole point of stage one: paper-scale schedules have millions
  // of rows but only a handful of congruence classes.
  const ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 1024};
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile prof = TileCostProfile::build(p, ts, 1);
  ASSERT_TRUE(prof.valid());
  EXPECT_GT(prof.total_rows(), 100);
  EXPECT_LE(static_cast<std::int64_t>(prof.classes().size()),
            prof.total_rows() / 10);
  // The profile still accounts for every row and block.
  const TileCostProfile ref = test::build_reference(p, ts, 1).profile;
  EXPECT_EQ(prof.total_rows(), ref.total_rows());
  EXPECT_EQ(prof.total_blocks(), ref.total_blocks());
  EXPECT_EQ(prof.empty_rows(), ref.empty_rows());
}

TEST(ProfileParity, InvalidGeometryIsReportedNotThrown) {
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 256};
  const hhc::TileSizes odd_tt{.tT = 7, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const TileCostProfile prof = TileCostProfile::build(p, odd_tt, 1);
  EXPECT_FALSE(prof.valid());
  EXPECT_FALSE(prof.error().empty());
  EXPECT_TRUE(prof.classes().empty());
}

// Every field build() fixes, against the row walk: class order,
// multiplicities, block counts, geometry, representative shapes and
// empty rows.
void expect_profile_equal(const TileCostProfile& fast,
                          const TileCostProfile& ref,
                          const std::string& what) {
  ASSERT_EQ(fast.classes().size(), ref.classes().size()) << what;
  ASSERT_EQ(fast.rep_shapes().size(), ref.rep_shapes().size()) << what;
  for (std::size_t c = 0; c < ref.classes().size(); ++c) {
    EXPECT_EQ(fast.classes()[c].mult, ref.classes()[c].mult)
        << what << " " << c;
    EXPECT_EQ(fast.classes()[c].blocks, ref.classes()[c].blocks)
        << what << " " << c;
    EXPECT_EQ(fast.classes()[c].geom, ref.classes()[c].geom)
        << what << " " << c;
    const hhc::TileShape& a = fast.rep_shapes()[c];
    const hhc::TileShape& b = ref.rep_shapes()[c];
    EXPECT_EQ(a.first_level, b.first_level) << what << " " << c;
    EXPECT_EQ(a.s1_domain, b.s1_domain) << what << " " << c;
    EXPECT_EQ(a.radius, b.radius) << what << " " << c;
    EXPECT_EQ(a.level_cols, b.level_cols) << what << " " << c;
  }
  EXPECT_EQ(fast.empty_rows(), ref.empty_rows()) << what;
}

// One generated case of the seeded sweep.
struct SweepCase {
  ProblemSize p;
  hhc::TileSizes ts;
  std::int64_t radius = 1;
};

// T spans 1 .. 2^14 log-uniformly, with a quarter of the cases in
// [1, 2 tT] so T < tT and T just past a row boundary come up often.
// One case in ten has odd tT and, for radius > 1, one in ten has
// tS1 < radius (invalid either way). S is drawn independently of the
// tile, so it is rarely a multiple of it.
SweepCase draw_case(Rng& rng) {
  SweepCase c;
  const int dim = static_cast<int>(rng.uniform_int(1, 3));
  c.radius = rng.uniform_int(1, 4);
  std::int64_t tT = 2 * rng.uniform_int(1, 16);
  if (rng.next_below(10) == 0) tT += rng.next_below(2) == 0 ? 1 : -1;
  std::int64_t tS1 = rng.uniform_int(c.radius, 48);
  if (c.radius > 1 && rng.next_below(10) == 0) {
    tS1 = rng.uniform_int(1, c.radius - 1);
  }
  const std::int64_t T =
      rng.next_below(4) == 0
          ? rng.uniform_int(1, 2 * tT)
          : static_cast<std::int64_t>(std::exp2(rng.uniform(0.0, 14.0)));
  c.p.dim = dim;
  c.p.T = rng.next_below(50) == 0 ? 16384 : T;
  c.p.S = {rng.uniform_int(1, 4096), dim >= 2 ? rng.uniform_int(1, 1024) : 0,
           dim >= 3 ? rng.uniform_int(1, 128) : 0};
  // 3D inner tiles start at 4: a 1-wide 3D tile has hundreds of band
  // classes per dimension and one such case would take the whole
  // budget of the row walk.
  c.ts = {.tT = tT,
          .tS1 = tS1,
          .tS2 = dim >= 2 ? rng.uniform_int(dim == 2 ? 1 : 4, 128) : 1,
          .tS3 = dim >= 3 ? rng.uniform_int(4, 32) : 1};
  return c;
}

const StencilDef& stencil_of_dim(int dim) {
  if (dim == 1) return get_stencil(StencilKind::kJacobi1D);
  if (dim == 2) return get_stencil(StencilKind::kHeat2D);
  return get_stencil(StencilKind::kHeat3D);
}

std::string describe(const SweepCase& c) {
  return "dim=" + std::to_string(c.p.dim) + " S=" + std::to_string(c.p.S[0]) +
         "x" + std::to_string(c.p.S[1]) + "x" + std::to_string(c.p.S[2]) +
         " T=" + std::to_string(c.p.T) + " tT=" + std::to_string(c.ts.tT) +
         " tS=" + std::to_string(c.ts.tS1) + "," + std::to_string(c.ts.tS2) +
         "," + std::to_string(c.ts.tS3) + " r=" + std::to_string(c.radius);
}

// Seeded sweep of generated problems against the row walk. Every case
// audits every row; one case in 25 also enumerates every skewed band
// (the band walk is O(rows x bands), so those cases get a smaller T
// and inner extent to keep the tier-1 budget).
TEST(ProfileParity, SeededSweepMatchesRowWalk) {
  constexpr int kCases = 1500;
  const std::vector<hhc::ThreadConfig> thrs = {{.n1 = 32, .n2 = 1, .n3 = 1},
                                               {.n1 = 32, .n2 = 4, .n3 = 2},
                                               {.n1 = 33, .n2 = 3, .n3 = 1},
                                               {.n1 = 128, .n2 = 2, .n3 = 1}};
  Rng rng(0x9E3779B97F4A7C15ULL);
  int valid = 0;
  int invalid = 0;
  int enumerated = 0;
  int shorter_than_tile = 0;  // T < tT: no interior rows at all
  for (int i = 0; i < kCases; ++i) {
    SweepCase c = draw_case(rng);
    const bool enumerate = i % 25 == 0;
    if (enumerate) {
      c.p.T = std::min<std::int64_t>(c.p.T, 512);
      c.p.S[1] = std::min<std::int64_t>(c.p.S[1], 256);
      c.p.S[2] = std::min<std::int64_t>(c.p.S[2], 64);
    }
    const std::string what = describe(c) + (enumerate ? " (bands)" : "");
    const TileCostProfile fast = TileCostProfile::build(c.p, c.ts, c.radius);
    const test::ReferenceProfile ref =
        test::build_reference(c.p, c.ts, c.radius, enumerate);
    ASSERT_EQ(fast.valid(), ref.valid) << what;
    if (!ref.valid) {
      EXPECT_EQ(fast.error(), ref.error) << what;
      EXPECT_TRUE(fast.classes().empty()) << what;
      ++invalid;
      continue;
    }
    ++valid;
    enumerated += enumerate ? 1 : 0;
    shorter_than_tile += c.p.T < c.ts.tT ? 1 : 0;
    EXPECT_EQ(ref.mismatches, 0) << what;
    expect_profile_equal(fast, ref.profile, what);
    const hhc::HexSchedule sched(c.p.T, c.p.S[0], c.ts.tT, c.ts.tS1,
                                 c.radius);
    EXPECT_EQ(fast.total_rows(), sched.num_rows()) << what;
    EXPECT_EQ(fast.total_blocks(), ref.profile.total_blocks()) << what;
    const StencilDef& def = stencil_of_dim(c.p.dim);
    for (const hhc::ThreadConfig& thr : thrs) {
      if (thr.n3 > 1 && c.p.dim < 3) continue;
      expect_sim_equal(
          simulate_time(gtx980(), def, c.p, c.ts, thr, fast, 1),
          simulate_time(gtx980(), def, c.p, c.ts, thr, ref.profile, 1), what);
    }
    if (HasFailure()) return;
  }
  // The generator must keep reaching both outcomes, T < tT and the
  // band walk.
  EXPECT_GT(valid, kCases / 2);
  EXPECT_GT(invalid, kCases / 20);
  EXPECT_GT(shorter_than_tile, kCases / 50);
  EXPECT_GT(enumerated, kCases / 50);
}

// Every bound field, no tolerance.
void expect_bound_equal(const LowerBound& a, const LowerBound& b,
                        const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.compute_floor, b.compute_floor) << what;
  EXPECT_EQ(a.memory_floor, b.memory_floor) << what;
  EXPECT_EQ(a.overhead_floor, b.overhead_floor) << what;
}

// A bounds-only profile against build()'s for the same tile: equal
// class for class in everything but the bins, which it leaves empty;
// build()'s point totals are the exact sums over its bins.
void expect_bounds_only_equal(const TileCostProfile& bounds,
                              const TileCostProfile& full,
                              const std::string& what) {
  ASSERT_EQ(bounds.valid(), full.valid()) << what;
  EXPECT_EQ(bounds.error(), full.error()) << what;
  if (!full.valid()) return;
  EXPECT_FALSE(bounds.has_histograms()) << what;
  ASSERT_EQ(bounds.classes().size(), full.classes().size()) << what;
  ASSERT_EQ(bounds.rep_shapes().size(), full.rep_shapes().size()) << what;
  for (std::size_t c = 0; c < full.classes().size(); ++c) {
    const RowClass& a = bounds.classes()[c];
    const RowClass& b = full.classes()[c];
    const std::string at = what + " class " + std::to_string(c);
    EXPECT_EQ(a.mult, b.mult) << at;
    EXPECT_EQ(a.blocks, b.blocks) << at;
    EXPECT_TRUE(a.geom.bins.empty()) << at;
    EXPECT_EQ(a.geom.total_points, b.geom.total_points) << at;
    EXPECT_EQ(a.geom.level_syncs, b.geom.level_syncs) << at;
    EXPECT_EQ(a.geom.busy_pieces, b.geom.busy_pieces) << at;
    EXPECT_EQ(a.geom.io_words, b.geom.io_words) << at;
    std::int64_t binned = 0;
    for (const PointBin& bin : b.geom.bins) binned += bin.points * bin.weight;
    EXPECT_EQ(b.geom.total_points, binned) << at;
    EXPECT_EQ(bounds.rep_shapes()[c].first_level,
              full.rep_shapes()[c].first_level)
        << at;
    EXPECT_EQ(bounds.rep_shapes()[c].level_cols,
              full.rep_shapes()[c].level_cols)
        << at;
  }
  EXPECT_EQ(bounds.empty_rows(), full.empty_rows()) << what;
  EXPECT_EQ(bounds.total_rows(), full.total_rows()) << what;
  EXPECT_EQ(bounds.total_blocks(), full.total_blocks()) << what;
}

// The three checks on one tile: bounds-only vs build(); lower_bound
// bitwise on both profiles (and through the convenience overload) for
// every default thread config and every catalogue variant; and the
// histograms added later vs a scratch build() and the row walk.
void check_histogram_free(const StencilDef& def, const ProblemSize& p,
                          const hhc::TileSizes& ts, std::int64_t radius,
                          bool enumerate_bands, const std::string& what) {
  const TileCostProfile bounds = TileCostProfile::build_bounds(p, ts, radius);
  const TileCostProfile full = TileCostProfile::build(p, ts, radius);
  expect_bounds_only_equal(bounds, full, what);
  if (!full.valid()) return;
  if (radius == def.radius) {
    for (const hhc::ThreadConfig& thr : tuner::default_thread_configs(p.dim)) {
      for (const stencil::KernelVariant& var :
           stencil::all_kernel_variants()) {
        const std::string at = what + " thr=" + std::to_string(thr.total()) +
                               " var=" + var.to_string();
        const LowerBound lb = lower_bound(gtx980(), def, p, ts, thr, full, var);
        expect_bound_equal(
            lower_bound(gtx980(), def, p, ts, thr, bounds, var), lb, at);
        expect_bound_equal(lower_bound(gtx980(), def, p, ts, thr, var), lb,
                           at + " (convenience)");
      }
    }
  }
  const TileCostProfile later = bounds.with_histograms();
  EXPECT_TRUE(later.has_histograms()) << what;
  expect_profile_equal(later, full, what + " (vs build)");
  const test::ReferenceProfile ref =
      test::build_reference(p, ts, radius, enumerate_bands);
  ASSERT_TRUE(ref.valid) << what;
  expect_profile_equal(later, ref.profile, what + " (vs row walk)");
  // A step along tS2 from either profile is bounds-only too and
  // equals build_bounds of the stepped tile.
  hhc::TileSizes wider = ts;
  wider.tS2 += p.dim >= 2 ? 8 : 0;
  expect_bounds_only_equal(full.build_step(wider),
                           TileCostProfile::build(p, wider, radius),
                           what + " (step)");
}

TEST(ProfileParity, HistogramFreeProfileMatchesBuildOnParityCases) {
  for (const ParityCase& c : parity_cases()) {
    const StencilDef& def = get_stencil(c.kind);
    check_histogram_free(def, c.p, c.ts, def.radius, /*enumerate_bands=*/true,
                         c.name);
    if (HasFailure()) return;
    // Stage two refuses a bounds-only profile instead of pricing its
    // empty histograms as zero work (an infeasible configuration
    // returns before pricing).
    if (!simulate_time(gtx980(), def, c.p, c.ts, c.thr).feasible) continue;
    const TileCostProfile bounds =
        TileCostProfile::build_bounds(c.p, c.ts, def.radius);
    EXPECT_THROW(simulate_time(gtx980(), def, c.p, c.ts, c.thr, bounds),
                 std::logic_error)
        << c.name;
    EXPECT_THROW(
        simulate_compute_only(gtx980(), def, c.p, c.ts, c.thr, bounds),
        std::logic_error)
        << c.name;
  }
}

// The seeded generator of SeededSweepMatchesRowWalk (1D/2D/3D,
// radius 1-4, clipped and invalid tiles), on its own seed. Bounds are
// compared for the radius of the dimension's catalogue stencil; every
// case compares the profiles.
TEST(ProfileParity, SeededHistogramFreeProfileMatchesBuild) {
  constexpr int kCases = 600;
  Rng rng(0xB5AD4ECEDA1CE2A9ULL);
  int valid = 0;
  int bounded = 0;
  for (int i = 0; i < kCases; ++i) {
    const SweepCase c = draw_case(rng);
    const StencilDef& def = stencil_of_dim(c.p.dim);
    check_histogram_free(def, c.p, c.ts, c.radius, /*enumerate_bands=*/false,
                         describe(c));
    if (HasFailure()) return;
    const bool ok = TileCostProfile::build_bounds(c.p, c.ts, c.radius).valid();
    valid += ok ? 1 : 0;
    bounded += ok && c.radius == def.radius ? 1 : 0;
  }
  EXPECT_GT(valid, kCases / 2);
  EXPECT_GT(bounded, kCases / 8);
}

}  // namespace
}  // namespace repro::gpusim
