// The bound geometry in closed form. build_bounds computes each
// class's points from its shape (the skewed bands partition the inner
// extents at every level) and its barrier counts from each band's
// non-empty level interval; build_step carries points and traffic
// along a (tT, tS1) run and re-derives only the barrier counts. Both,
// and block_bounds on each representative shape, must equal the row
// walk under tests/support/ (every row, every band enumerated) class
// for class, bins aside, and every step chain, with
// its histograms added, must equal a fresh build(). The three facts
// the closed forms rest on (the contracts at build_step) are asserted
// here directly, on every representative shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cost_profile.hpp"
#include "hhc/bands.hpp"
#include "stencil/parser.hpp"
#include "stencil/stencil.hpp"
#include "support/profile_oracle.hpp"

namespace repro::gpusim {
namespace {

using stencil::ProblemSize;
using stencil::StencilDef;

// Every catalogue stencil, plus DSL stencils of radius 3 (2D) and 4
// (3D).
std::vector<StencilDef> stencils() {
  std::vector<StencilDef> out;
  for (const StencilDef& def : stencil::all_stencils()) out.push_back(def);
  out.push_back(stencil::parse_stencil(
      "stencil Star3R2D {\n dim 2\n tap (0,0) 0.2\n tap (-3,0) 0.2\n"
      " tap (3,0) 0.2\n tap (0,-3) 0.2\n tap (0,3) 0.2\n}\n"));
  out.push_back(stencil::parse_stencil(
      "stencil Star4R3D {\n dim 3\n tap (0,0,0) 0.4\n tap (-4,0,0) 0.1\n"
      " tap (4,0,0) 0.1\n tap (0,-4,0) 0.1\n tap (0,4,0) 0.1\n"
      " tap (0,0,-4) 0.1\n tap (0,0,4) 0.1\n}\n"));
  return out;
}

// Inner extents of one run: below, equal to and above the problem's
// extent S (below only when S > 1).
std::vector<std::int64_t> inner_extents(Rng& rng, std::int64_t S) {
  std::vector<std::int64_t> out;
  if (S > 1) out.push_back(rng.uniform_int(1, S - 1));
  out.push_back(S);
  out.push_back(S + rng.uniform_int(1, 24));
  return out;
}

std::string describe(const StencilDef& def, const ProblemSize& p,
                     const hhc::TileSizes& ts) {
  std::string s = def.name;
  s += " S=";
  s += std::to_string(p.S[0]) + "x" + std::to_string(p.S[1]) + "x" +
       std::to_string(p.S[2]);
  s += " T=" + std::to_string(p.T) + " tile=" + std::to_string(ts.tT) + "," +
       std::to_string(ts.tS1) + "," + std::to_string(ts.tS2) + "," +
       std::to_string(ts.tS3);
  return s;
}

// The two preconditions, on one band family of one shape: the bands
// cover [0, S) exactly once at every level, and band b is non-empty
// exactly at the levels of busy_levels(b).
void expect_band_facts(const hhc::SkewedBands& bands, std::int64_t levels,
                       const std::string& what) {
  const std::int64_t span =
      (bands.S() - 1) + bands.radius() * (bands.t_hi() - 1 - bands.t_lo());
  EXPECT_GT(bands.num_bands() * bands.ts(), span) << what;
  for (std::int64_t lev = 0; lev < levels; ++lev) {
    const std::int64_t t = bands.t_lo() + lev;
    std::int64_t covered = 0;
    std::int64_t next = 0;  // bands are ascending and contiguous
    for (std::int64_t b = 0; b < bands.num_bands(); ++b) {
      const hhc::Interval r = bands.range_at(b, t);
      if (r.empty()) continue;
      EXPECT_EQ(r.lo, next) << what << " band " << b << " t " << t;
      next = r.hi;
      covered += r.size();
    }
    EXPECT_EQ(covered, bands.S()) << what << " t " << t;
  }
  for (std::int64_t b = 0; b < bands.num_bands(); ++b) {
    const hhc::Interval busy = bands.busy_levels(b);
    for (std::int64_t lev = 0; lev < levels; ++lev) {
      EXPECT_EQ(busy.contains(lev),
                !bands.range_at(b, bands.t_lo() + lev).empty())
          << what << " band " << b << " level " << lev;
    }
  }
}

// The three contracts on every representative shape of a profile:
// the band facts above for each inner dimension, and no empty level.
void expect_shape_facts(const TileCostProfile& prof, const ProblemSize& p,
                        const hhc::TileSizes& ts, const std::string& what) {
  for (const hhc::TileShape& shape : prof.rep_shapes()) {
    const std::int64_t levels =
        static_cast<std::int64_t>(shape.level_cols.size());
    for (const hhc::Interval& cols : shape.level_cols) {
      EXPECT_FALSE(cols.empty()) << what << " first level "
                                 << shape.first_level;
    }
    const std::int64_t t_hi = shape.first_level + levels;
    if (p.dim >= 2) {
      expect_band_facts(hhc::SkewedBands(p.S[1], ts.tS2, shape.first_level,
                                         t_hi, shape.radius),
                        levels, what + " s2");
    }
    if (p.dim >= 3) {
      expect_band_facts(hhc::SkewedBands(p.S[2], ts.tS3, shape.first_level,
                                         t_hi, shape.radius),
                        levels, what + " s3");
    }
  }
}

// `got` equals `want` class for class, bins aside (`got` has none).
void expect_bounds_equal(const TileCostProfile& got,
                         const TileCostProfile& want,
                         const std::string& what) {
  ASSERT_EQ(got.valid(), want.valid()) << what;
  if (!want.valid()) return;
  EXPECT_FALSE(got.has_histograms()) << what;
  ASSERT_EQ(got.classes().size(), want.classes().size()) << what;
  for (std::size_t c = 0; c < want.classes().size(); ++c) {
    BlockGeometry binless = want.classes()[c].geom;
    binless.bins.clear();
    EXPECT_EQ(got.classes()[c].mult, want.classes()[c].mult)
        << what << " " << c;
    EXPECT_EQ(got.classes()[c].blocks, want.classes()[c].blocks)
        << what << " " << c;
    EXPECT_EQ(got.classes()[c].geom, binless) << what << " class " << c;
  }
  EXPECT_EQ(got.empty_rows(), want.empty_rows()) << what;
}

// `got` equals `want` class for class, bins included.
void expect_profiles_equal(const TileCostProfile& got,
                           const TileCostProfile& want,
                           const std::string& what) {
  ASSERT_EQ(got.valid(), want.valid()) << what;
  if (!want.valid()) return;
  EXPECT_TRUE(got.has_histograms()) << what;
  ASSERT_EQ(got.classes().size(), want.classes().size()) << what;
  for (std::size_t c = 0; c < want.classes().size(); ++c) {
    EXPECT_EQ(got.classes()[c].mult, want.classes()[c].mult)
        << what << " " << c;
    EXPECT_EQ(got.classes()[c].blocks, want.classes()[c].blocks)
        << what << " " << c;
    EXPECT_EQ(got.classes()[c].geom, want.classes()[c].geom)
        << what << " class " << c;
  }
  EXPECT_EQ(got.empty_rows(), want.empty_rows()) << what;
}

// A seeded grid of (tT, tS1) runs per stencil. T is drawn so the head
// and tail rows are clipped (often T not a multiple of tT, sometimes
// T <= tT), S1 mostly from one tile pitch up and sometimes below it
// (which clips the representative tiles in s1 too), and each run
// steps through inner extents below, equal to and above S (in 3D
// every pair of them). Every tile of a run is checked against the
// row walk; the run is one build_step chain, started from
// build_bounds on even draws and from a priced build() on odd ones.
TEST(BoundsGeometry, ClosedFormsMatchTheRowWalkAlongStepChains) {
  Rng rng(0x5EEDB0A7D5ULL);
  int tiles = 0;
  int steps = 0;
  int clipped_t = 0;
  int below = 0;
  int equal = 0;
  int above = 0;
  for (const StencilDef& def : stencils()) {
    const std::int64_t r = def.radius;
    ASSERT_GE(r, 1) << def.name;
    for (int draw = 0; draw < 40; ++draw) {
      const std::int64_t tT = 2 * rng.uniform_int(1, 8);
      const std::int64_t tS1 = rng.uniform_int(r, r + 24);
      ProblemSize p;
      p.dim = def.dim;
      p.T = rng.next_below(3) == 0 ? rng.uniform_int(1, tT)
                                   : rng.uniform_int(tT + 1, 8 * tT);
      const std::int64_t pitch = 2 * tS1 + r * tT;
      p.S = {rng.next_below(4) == 0 ? rng.uniform_int(1, pitch)
                                    : rng.uniform_int(pitch, 400),
             0, 0};
      if (p.dim >= 2) p.S[1] = rng.uniform_int(1, p.dim == 2 ? 160 : 28);
      if (p.dim >= 3) p.S[2] = rng.uniform_int(1, 28);
      clipped_t += p.T % tT != 0 ? 1 : 0;

      std::vector<hhc::TileSizes> run;
      const std::vector<std::int64_t> s2 =
          p.dim >= 2 ? inner_extents(rng, p.S[1])
                     : std::vector<std::int64_t>{1};
      const std::vector<std::int64_t> s3 =
          p.dim >= 3 ? inner_extents(rng, p.S[2])
                     : std::vector<std::int64_t>{1};
      for (const std::int64_t a : s2) {
        for (const std::int64_t b : s3) {
          run.push_back({.tT = tT, .tS1 = tS1, .tS2 = a, .tS3 = b});
        }
      }

      std::optional<TileCostProfile> chain;
      for (const hhc::TileSizes& ts : run) {
        const std::string what = describe(def, p, ts);
        if (p.dim >= 2) {
          below += ts.tS2 < p.S[1] ? 1 : 0;
          equal += ts.tS2 == p.S[1] ? 1 : 0;
          above += ts.tS2 > p.S[1] ? 1 : 0;
        }
        const TileCostProfile fresh = TileCostProfile::build(p, ts, r);
        ASSERT_TRUE(fresh.valid()) << what << ": " << fresh.error();
        const test::ReferenceProfile ref = test::build_reference(p, ts, r);
        ASSERT_TRUE(ref.valid) << what;
        EXPECT_EQ(ref.mismatches, 0) << what;
        expect_shape_facts(fresh, p, ts, what);
        for (const hhc::TileShape& shape : fresh.rep_shapes()) {
          BlockGeometry walked = test::reference_block_geometry(p, ts, shape);
          walked.bins.clear();
          EXPECT_EQ(block_bounds(p, ts, shape), walked) << what;
        }

        // A fresh bounds-only profile and the oracle, bins ignored.
        expect_bounds_equal(TileCostProfile::build_bounds(p, ts, r),
                            ref.profile, what + " (build_bounds)");
        expect_profiles_equal(fresh, ref.profile, what + " (build)");

        // One more link of the chain, and its histograms.
        if (!chain) {
          chain = draw % 2 == 0 ? TileCostProfile::build_bounds(p, ts, r)
                                : fresh;
        } else {
          chain = chain->build_step(ts);
          ++steps;
          expect_bounds_equal(*chain, fresh, what + " (step)");
          expect_bounds_equal(*chain, ref.profile, what + " (step vs walk)");
        }
        expect_profiles_equal(chain->with_histograms(), fresh,
                              what + " (chain with histograms)");
        ++tiles;
        if (HasFailure()) return;
      }
    }
  }
  // The grid must keep reaching what it is for.
  EXPECT_GT(tiles, 2000);
  EXPECT_GT(steps, 1500);
  EXPECT_GT(clipped_t, 300);
  EXPECT_GT(below, 600);
  EXPECT_GT(equal, 600);
  EXPECT_GT(above, 600);
}

// The closed forms count every level of a shape as a barrier row, so
// a shape with an empty level cannot enter a profile.
TEST(BoundsGeometry, FromClassesRejectsAShapeWithAnEmptyLevel) {
  const ProblemSize p{.dim = 2, .S = {256, 64, 0}, .T = 16};
  const hhc::TileSizes ts{.tT = 4, .tS1 = 8, .tS2 = 16, .tS3 = 1};
  const TileCostProfile built = TileCostProfile::build(p, ts, 1);
  ASSERT_TRUE(built.valid());
  std::vector<hhc::TileShape> shapes = built.rep_shapes();
  EXPECT_NO_THROW(TileCostProfile::from_classes(p, ts, 1, built.classes(),
                                                shapes, built.empty_rows()));
  ASSERT_FALSE(shapes.front().level_cols.empty());
  shapes.front().level_cols.front() = {};
  EXPECT_THROW(TileCostProfile::from_classes(p, ts, 1, built.classes(),
                                             shapes, built.empty_rows()),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::gpusim
