#include "tuner/space.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/legality.hpp"
#include "gpusim/device.hpp"
#include "hhc/footprint.hpp"

namespace repro::tuner {
namespace {

model::HardwareParams hw() { return gpusim::gtx980().to_model_hardware(); }

TEST(Space, AllEnumeratedPointsSatisfyConstraints) {
  EnumOptions opt;
  opt.tT_max = 16;
  opt.tS1_max = 32;
  opt.tS2_max = 256;
  const auto pts = enumerate_feasible(2, hw(), opt);
  ASSERT_FALSE(pts.empty());
  for (const auto& ts : pts) {
    EXPECT_EQ(ts.tT % 2, 0);
    EXPECT_GE(ts.tT, 2);
    EXPECT_GE(ts.tS1, 1);
    EXPECT_EQ(ts.tS2 % 32, 0);
    EXPECT_LE(hhc::shared_words_per_tile(2, ts),
              hw().max_shared_words_per_block);
  }
}

TEST(Space, EnumerationIsDuplicateFree) {
  EnumOptions opt;
  opt.tT_max = 8;
  opt.tS1_max = 16;
  opt.tS2_max = 128;
  const auto pts = enumerate_feasible(2, hw(), opt);
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>>
      seen;
  for (const auto& ts : pts) {
    EXPECT_TRUE(seen.insert({ts.tT, ts.tS1, ts.tS2, ts.tS3}).second);
  }
}

TEST(Space, OneDimensionalSpaceIgnoresInnerSizes) {
  EnumOptions opt;
  opt.tT_max = 8;
  opt.tS1_max = 16;
  const auto pts = enumerate_feasible(1, hw(), opt);
  for (const auto& ts : pts) {
    EXPECT_EQ(ts.tS2, 1);
    EXPECT_EQ(ts.tS3, 1);
  }
}

TEST(Space, ThreeDimensionalSpaceHasWarpAlignedInner) {
  EnumOptions opt;
  opt.tT_max = 8;
  opt.tS1_max = 8;
  opt.tS2_max = 64;
  opt.tS3_max = 64;
  const auto pts = enumerate_feasible(3, hw(), opt);
  ASSERT_FALSE(pts.empty());
  for (const auto& ts : pts) {
    EXPECT_EQ(ts.tS3 % 32, 0);
    EXPECT_LE(hhc::shared_words_per_tile(3, ts),
              hw().max_shared_words_per_block);
  }
}

TEST(Space, BaselineSetMaximizesFootprintPerK) {
  const auto base = baseline_tile_set(2, hw(), 85);
  ASSERT_FALSE(base.empty());
  EXPECT_LE(base.size(), 85u);
  // Every baseline point fits the block limit but uses a large
  // fraction of some M_SM/k budget.
  const std::int64_t m_sm = hw().shared_words_per_sm;
  for (const auto& ts : base) {
    const std::int64_t m = hhc::shared_words_per_tile(2, ts);
    EXPECT_LE(m, hw().max_shared_words_per_block);
    bool near_some_target = false;
    for (std::int64_t k : {2, 4, 8, 16}) {
      if (m <= m_sm / k && m >= (m_sm / k) * 7 / 10) near_some_target = true;
    }
    EXPECT_TRUE(near_some_target) << ts.to_string();
  }
}

// The baseline set drawn from an enumerated space is the set the
// enumerating form returns, point for point and in order, for every
// dimension, radius and cap.
TEST(Space, BaselineSetFromASpaceMatchesTheEnumeratingForm) {
  const EnumOptions opt = EnumOptions{}.with_tS1_step(3).with_tT_max(32);
  for (const int dim : {1, 2, 3}) {
    for (const std::int64_t radius : {1, 2}) {
      const std::vector<hhc::TileSizes> space =
          enumerate_feasible(dim, hw(), opt, radius);
      for (const std::size_t cap : {std::size_t{1}, std::size_t{24},
                                    std::size_t{85}}) {
        EXPECT_EQ(baseline_tile_set(dim, space, hw(), cap, radius),
                  baseline_tile_set(dim, hw(), cap, opt, radius))
            << dim << "D radius " << radius << " cap " << cap;
      }
    }
  }
}

TEST(Space, RejectsNonPositiveSteps) {
  // Zero/negative steps would never advance the loops — previously an
  // infinite-loop hazard, now a structured invalid_argument (SL310).
  for (auto mutate : {+[](EnumOptions* o) { o->tT_step = 0; },
                      +[](EnumOptions* o) { o->tS1_step = -1; },
                      +[](EnumOptions* o) { o->tS2_step = 0; },
                      +[](EnumOptions* o) { o->tS3_step = -8; }}) {
    EnumOptions opt;
    mutate(&opt);
    EXPECT_THROW(opt.validate(), std::invalid_argument);
    EXPECT_THROW(enumerate_feasible(2, hw(), opt), std::invalid_argument);
    EXPECT_THROW(baseline_tile_set(2, hw(), 85, opt), std::invalid_argument);
  }
  try {
    EnumOptions opt;
    opt.tS2_step = 0;
    opt.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SL310"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tS2_step"), std::string::npos);
  }
}

TEST(Space, BuilderSettersCompose) {
  const EnumOptions opt = EnumOptions{}
                              .with_tT_max(12)
                              .with_tT_step(4)
                              .with_tS1_max(20)
                              .with_tS1_step(5)
                              .with_tS2_max(96)
                              .with_tS2_step(16)
                              .with_tS3_max(64)
                              .with_tS3_step(32);
  EXPECT_EQ(opt.tT_max, 12);
  EXPECT_EQ(opt.tT_step, 4);
  EXPECT_EQ(opt.tS1_max, 20);
  EXPECT_EQ(opt.tS1_step, 5);
  EXPECT_EQ(opt.tS2_max, 96);
  EXPECT_EQ(opt.tS2_step, 16);
  EXPECT_EQ(opt.tS3_max, 64);
  EXPECT_EQ(opt.tS3_step, 32);
}

TEST(Space, ValidateCollectsAllProblemsThroughTheEngine) {
  // The engine-collecting form reports every problem at once instead
  // of throwing at the first: bad steps are SL310, bad maxes SL312.
  EnumOptions bad = EnumOptions{}.with_tT_step(0).with_tS1_max(-4);
  analysis::DiagnosticEngine eng;
  bad.validate(eng);
  EXPECT_TRUE(eng.has_errors());
  EXPECT_TRUE(eng.has_code(analysis::Code::kEnumStep));
  EXPECT_TRUE(eng.has_code(analysis::Code::kOptionRange));
  EXPECT_GE(eng.size(), 2u);

  analysis::DiagnosticEngine clean;
  EnumOptions{}.validate(clean);
  EXPECT_TRUE(clean.empty());
}

TEST(Space, EnumerationMatchesLegalityCheckerOnTheLattice) {
  // The refactor onto analysis::eqn31_feasible must not change the
  // feasible set: brute-force the same lattice and filter with the
  // checker, then compare element-wise (order included).
  EnumOptions opt;
  opt.tT_max = 16;
  opt.tS1_max = 24;
  opt.tS2_max = 256;
  for (std::int64_t radius : {1, 2}) {
    const auto pts = enumerate_feasible(2, hw(), opt, radius);
    std::vector<hhc::TileSizes> expect;
    for (std::int64_t tT = 2; tT <= opt.tT_max; tT += opt.tT_step) {
      for (std::int64_t tS1 = radius; tS1 <= opt.tS1_max;
           tS1 += opt.tS1_step) {
        for (std::int64_t tS2 = opt.tS2_step; tS2 <= opt.tS2_max;
             tS2 += opt.tS2_step) {
          const hhc::TileSizes ts{.tT = tT, .tS1 = tS1, .tS2 = tS2,
                                  .tS3 = 1};
          if (analysis::eqn31_feasible(2, ts, hw(), radius))
            expect.push_back(ts);
        }
      }
    }
    EXPECT_EQ(pts, expect) << "radius=" << radius;
  }
}

TEST(Space, HhcDefaultsAreValid) {
  for (int dim = 1; dim <= 3; ++dim) {
    const hhc::TileSizes ts = hhc_default_tiles(dim);
    EXPECT_NO_THROW(hhc::validate(ts, dim));
    EXPECT_LE(hhc::shared_words_per_tile(dim, ts),
              hw().max_shared_words_per_block);
  }
}

TEST(Space, TenThreadConfigsPerDim) {
  for (int dim = 1; dim <= 3; ++dim) {
    const auto cfgs = default_thread_configs(dim);
    EXPECT_EQ(cfgs.size(), 10u) << "dim=" << dim;
    for (const auto& c : cfgs) {
      EXPECT_GE(c.total(), 32);
      EXPECT_LE(c.total(), 1024);
      EXPECT_EQ(c.n1 % 32, 0);  // full warps along s1
    }
  }
}

}  // namespace
}  // namespace repro::tuner
